"""Fusion decision procedure: constraint systems, witnesses, certificates."""

import ast
import copy
import importlib.util
import inspect
import itertools
import json
import pickle
import textwrap
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from voaf import fusion, labels, linalg, virasoro, zhu
from voaf.step3 import second_circle_relation_polys
from voaf.suites import expected_fusion, phi, suite_virasoro, verify_generator_hypothesis
from voaf.fock import FockVector, Sector
from voaf.labels import ModuleLabel, mlam, mminus, mplus, mtheta_minus, mtheta_plus
from voaf.multipoly import MultiPoly
from voaf.scalars import Scalar, rational_sqrt
from voaf.vertexops import J_state, modes

F = Fraction


def _load_relation_tool():
    """tools/relation_polys.py, which derives the generated systems on Fock
    vectors."""
    path = Path(__file__).resolve().parents[1] / "tools" / "relation_polys.py"
    spec = importlib.util.spec_from_file_location("relation_polys_tool", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


TOOL = _load_relation_tool()

CONCRETE = [
    mplus(),
    mminus(),
    mtheta_plus(),
    mtheta_minus(),
    mlam(F(1, 3)),
    mlam(F(1, 2)),
    mlam(F(2)),
    mlam(F(9, 2)),
]


STD_GRID = [F(1, 3), F(1, 2), F(2), F(9, 2), F(8), F(5)]
GENERIC_GRID = [F(3), F(5, 4), F(22, 9), F(13, 7)]
# both golden grids with their closures, and the ladder s = n^2/2, n <= 8
GRID_LABELS = [mplus(), mminus(), mtheta_plus(), mtheta_minus()] + [
    mlam(s)
    for s in sorted(
        set(fusion.charge_closure(STD_GRID))
        | set(fusion.charge_closure(GENERIC_GRID))
        | {F(n * n, 2) for n in range(1, 9)}
    )
]
# degrees of the expansion generators above the top, and the bimodule
# generator count; every other label has the top vector alone
EXTRA_GENERATORS = {
    "Mtheta+": ([3], 1),
    "Mtheta-": ([1], 2),
    "M(s=1/2)": ([2], 2),
    "M(s=2)": ([3], 1),
}


def _charge_literals(source):
    """The Fraction(...) calls in the source whose arguments are all constants."""
    tree = ast.parse(textwrap.dedent(source))
    return [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "Fraction"
        and all(isinstance(getattr(a, "operand", a), ast.Constant) for a in node.args)
    ]


class TestGenerators:
    def test_grid_has_23_labels(self):
        assert len(GRID_LABELS) == 23

    @pytest.mark.parametrize("label", GRID_LABELS, ids=str)
    def test_generator_counts(self, label):
        degrees, count = EXTRA_GENERATORS.get(str(label), ([], 1))
        gens, ngens = zhu._generators(label)
        assert gens[0] == label.top_vector()
        assert [g.max_degree() - label.top_degree() for g in gens[1:]] == degrees
        assert ngens == count
        assert zhu.generator_set(label) == list(gens[:count])

    @pytest.mark.parametrize(
        "fn",
        [fusion.constraint_system, zhu.generator_set, zhu._generators, fusion.decide],
        ids=lambda fn: fn.__name__,
    )
    def test_no_charge_literal(self, fn):
        """The code that picks generators and rows holds no case table."""
        assert _charge_literals(inspect.getsource(fn)) == []

    def test_charge_literal_check_catches_a_case_table(self):
        src = "def f(label, s):\n    return label.s in (Fraction(1, 2), Fraction(-9, 2), Fraction(-s))\n"
        assert _charge_literals(src) == ["Fraction(1, 2)", "Fraction(-9, 2)"]

    @pytest.mark.parametrize("label", CONCRETE, ids=str)
    def test_generator_hypothesis(self, label):
        assert verify_generator_hypothesis(label)


def _reference_coords_to_polys(coords, base_weights, ngens):
    """The lcm route that contraction polynomials took before concrete and
    formal contractions were split, on rational coordinates, where every
    denominator is 1 and nothing cancels: per generator, the sum over its
    words of c * descendant_to_poly, each coordinate checked on its own."""
    out = [MultiPoly() for _ in range(ngens)]
    for w, c in coords.items():
        if not c.is_rational():
            raise ValueError("non-rational descendant coordinate %s" % c)
        out[w.gen] = out[w.gen] + zhu.descendant_to_poly(w.ms, base_weights[w.gen]) * c.as_rat()
    return [(num, MultiPoly.const(1)) for num in out]


_H22 = FockVector.basis(Sector.untwisted(None), (F(2), F(2)))
# positive charges off the Kac roots k^2/2, where M(s) is irreducible
_GENERIC_CHARGES = st.fractions(min_value=F(1, 12), max_value=50, max_denominator=12).filter(
    lambda s: s > 0 and rational_sqrt(2 * s) is None
)


class TestContractions:
    @given(_GENERIC_CHARGES)
    @settings(max_examples=12, deadline=None)
    def test_relations_match_concrete_contractions(self, s):
        """Each generated pair (num, den) at s is the contraction computed in
        Q(sqrt(s)) on the top vector of M(s), times den(s)."""
        f_num, f_den, g_num, g_den = fusion.generic_relation_polys()
        h_num, h_den = second_circle_relation_polys()
        at = {"s": MultiPoly.const(s)}
        (star,) = TOOL._star_row_polys(mlam(s))
        assert star * f_den.evaluate({"s": s}) == f_num.subs(at)
        v = mlam(s).top_vector()
        for a, num, den in ((zhu._h3h1(), g_num, g_den), (_H22, h_num, h_den)):
            _, (circle,) = TOOL.expand_in_generators(zhu.circ(a, v), [v])
            assert circle * den.evaluate({"s": s}) == num.subs(at)

    def test_relation_accessors_compute_nothing(self):
        """The accessors read the generated module; no expansion, product
        or elimination runs behind them."""
        names = set()
        for fn in (
            fusion._relation,
            second_circle_relation_polys,
            fusion.generic_relation_polys,
        ):
            tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
            for n in ast.walk(tree):
                if isinstance(n, ast.Attribute):
                    names.add(n.attr)
                elif isinstance(n, ast.Name):
                    names.add(n.id)
                elif isinstance(n, ast.ImportFrom):
                    names |= {n.module} | {a.name for a in n.names}
        assert "relation_polys" in names
        assert not names & {"express_in_descendants", "zhu", "linalg", "solve", "virasoro"}

    @pytest.mark.parametrize(
        "label",
        [mminus(), mtheta_plus(), mtheta_minus(), mlam(F(1, 3)), mlam(F(1, 2)),
         mlam(F(2)), mlam(F(8)), mlam(F(25, 2))],
        ids=str,
    )
    def test_concrete_contractions_match_the_lcm_reference(self, label):
        """Also where a coordinate is irrational and the expansion retries
        on rescaled generators (s = 1/2 and s = 2)."""
        gens = zhu._generators(label)[0]
        coords, polys = TOOL.expand_in_generators(zhu.star_left(zhu._h3h1(), gens[0]), gens)
        base_weights = [label.sector().weight_offset_rat() + g.max_degree() for g in gens]
        pairs = _reference_coords_to_polys(coords, base_weights, len(gens))
        assert polys == [num for num, _ in pairs]
        assert all(den == MultiPoly.const(1) for _, den in pairs)


def _searched_prefix(label):
    """The shortest prefix of the expansion generators whose Virasoro span
    holds J_n(top), n = 1, 2, 3, found by trying each length in turn."""
    gens = zhu._generators(label)[0]
    images = modes(J_state(), (1, 2, 3), label.top_vector())
    for k in range(1, len(gens) + 1):
        try:
            for img in images:
                virasoro.express_in_descendants(img, gens[:k])
        except virasoro.NotInSpan:
            continue
        return k
    return None


def _m_half_states():
    """States of M(s=1/2) with rational coordinates over [g0, lam*g1], each
    with its g1 word: two whose coordinate on that word over [g0, g1] is
    lam-odd, and two with no g1 component (word None)."""
    label = mlam(F(1, 2))
    g0, g1 = zhu.generator_set(label)
    lam = label.sector().lam_scalar()
    return [
        (virasoro.L_word((2,), g0).scale(Scalar.of(F(2, 3))) - g1.scale(lam * F(2, 3)), ()),
        (virasoro.L_word((2, 1), g0) + virasoro.L_word((1,), g1).scale(lam * 5), (1,)),
        (g0, None),
        (virasoro.L_word((2, 1), g0) - virasoro.L_word((3,), g0).scale(Scalar.of(2)), None),
    ]


class TestOneExpansion:
    """The bimodule prefix and the lam-rescale are read off one solve; these
    compare both reads with the searches and solves that they replace."""

    @pytest.mark.parametrize(
        "label",
        [mplus(), mminus(), mtheta_plus(), mtheta_minus(), mlam(F(1, 2)), mlam(F(2)),
         mlam(F(9, 2)), mlam(F(8)), mlam(F(1, 3))],
        ids=str,
    )
    def test_prefix_is_the_searched_prefix(self, label):
        assert zhu._generators(label)[1] == _searched_prefix(label)

    @staticmethod
    def _assert_scaled_solve(label, v):
        gens = zhu._generators(label)[0]
        scaled = [gens[0]] + [g.scale(label.sector().lam_scalar()) for g in gens[1:]]
        coords, _ = TOOL.expand_in_generators(v, gens)
        assert coords == virasoro.express_in_descendants(v, scaled)

    @pytest.mark.parametrize("s", [F(1, 2), F(2)], ids=str)
    def test_star_relation_rescale_is_a_solve_over_scaled_generators(self, s):
        label = mlam(s)
        self._assert_scaled_solve(label, zhu.star_left(zhu._h3h1(), label.top_vector()))

    @pytest.mark.parametrize("i", range(4), ids=["odd g1", "odd g1 word", "top", "g0 words"])
    def test_state_rescale_is_a_solve_over_scaled_generators(self, i):
        v, g1_word = _m_half_states()[i]
        first = virasoro.express_in_descendants(v, zhu.generator_set(mlam(F(1, 2))))
        g1_coords = {w.ms: c for w, c in first.items() if w.gen == 1}
        if g1_word is None:
            assert g1_coords == {}
        else:
            assert list(g1_coords) == [g1_word] and not g1_coords[g1_word].is_rational()
        self._assert_scaled_solve(mlam(F(1, 2)), v)

    def test_a_lam_part_that_no_rescale_removes_is_refused(self):
        # h(-2)e^lam has the coordinates 4/3*lam on L(-2)g0 and 1/3 on g1
        label = mlam(F(1, 2))
        v = FockVector.basis(label.sector(), (F(2),))
        gens = zhu.generator_set(label)
        assert zhu.descendant_coordinates(v, gens) == virasoro.express_in_descendants(v, gens)
        with pytest.raises(ValueError):
            TOOL.expand_in_generators(v, gens)


def _derived_system(label):
    """The module's system derived on Fock vectors with zhu, as (ngens,
    ncols, signs, rows): the expansion generators and the signs of their
    columns; the quartic relation on the top vector, expanded in their
    descendants where it lies in their span; for a charged module with no
    primary above the top within the relation degree, the circle relation
    the same way; and the singular-vector row by a rational elimination of
    the word images.  Such a charged module's generated rows are these
    times the relations' denominators at s, and it has no circle row where
    that denominator vanishes."""
    gens, ngens = zhu._generators(label)
    degs = [g.max_degree() for g in gens]
    weights = [label.sector().weight_offset_rat() + d for d in degs]
    _, f_den, _, g_den = fusion.generic_relation_polys()
    generic = label.kind == "Mlam" and not zhu._extra_weights(label)
    x = MultiPoly.var("x")

    def expanded(a, product):
        coords = zhu.descendant_coordinates(product(a, gens[0]), gens)
        return zhu.coords_to_polys(coords, weights, len(gens))

    rows = []
    try:
        star = [p * 9 for p in expanded(zhu._h3h1(), zhu.star_left)]
    except virasoro.NotInSpan:
        star = None
    if star is not None:
        star[0] = star[0] + MultiPoly.var("z") - x * x * 4 - x * 17
        if generic:
            star = [star[0] * f_den.evaluate({"s": label.s})]
        rows.append(("star", star))
    if generic and g_den.evaluate({"s": label.s}) != 0:
        (circle,) = expanded(zhu._h3h1(), zhu.circ)
        rows.append(("circle", [circle * g_den.evaluate({"s": label.s})]))
    if _ladder_level(label) is not None:
        sing = _rational_reference_singular_row_poly(label)
        rows.append(("singular-vector", [sing] + [MultiPoly()] * (len(gens) - 1)))
    signs = tuple((-1) ** int(d - degs[0]) for d in degs)
    pairs = [(name + end, tuple(polys)) for name, polys in rows for end in ("", "-mirror")]
    return ngens, len(gens), signs, pairs


def _assert_derived(label):
    system = fusion.constraint_system(label)
    rows = [(row.name, row.polys) for row in system.rows]
    assert (system.ngens, system.ncols, system.signs, rows) == _derived_system(label)
    assert [row.mirror for row in system.rows] == [False, True] * (len(rows) // 2)


# the standard grid's closure with the uncharged modules, and the ladder
# s = n^2/2 for n = 1..8
REFERENCE_LABELS = [mplus(), mminus(), mtheta_plus(), mtheta_minus()] + [
    mlam(s) for s in sorted(set(fusion.charge_closure(STD_GRID)) | {F(n * n, 2) for n in range(1, 9)})
]


class TestConstraintSystems:
    @pytest.mark.parametrize("label", REFERENCE_LABELS, ids=str)
    def test_system_is_the_derivation_on_vectors(self, label):
        """Every system the engine reads, from systems.json or by the
        generated relations' rule, is the one derived on vectors."""
        _assert_derived(label)

    @given(st.fractions(min_value=F(1, 12), max_value=32, max_denominator=12))
    @settings(max_examples=12, deadline=None)
    def test_sampled_system_is_the_derivation_on_vectors(self, s):
        _assert_derived(mlam(s))

    def test_engine_builds_no_system_on_vectors(self):
        """fusion.py reads the systems as data and builds the singular row
        on its closed form: it names no word image, elimination, vertex
        operator, decomposition or Zhu product."""
        tree = ast.parse(inspect.getsource(fusion))
        names = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        assert not names & {
            "express_in_descendants", "basis_at_degree", "J_state", "modes", "nullspace",
            "decomposition_weights", "star_left",
        }

    @pytest.mark.parametrize("label", CONCRETE, ids=str)
    def test_systems_build(self, label):
        system = fusion.constraint_system(label)
        assert system.rows
        for row in system.rows:
            assert len(row.polys) == system.ncols

    def test_generic_system_has_star_and_circle(self):
        system = fusion.constraint_system(mlam(F(1, 3)))
        names = [r.name for r in system.rows]
        assert any("star" in n for n in names)
        assert any("circle" in n for n in names)

    @pytest.mark.parametrize("s", [F(1, 3), F(4, 3), F(5), F(8), F(25, 2)], ids=str)
    def test_formal_star_row_is_the_scaled_expansion_row(self, s):
        """The generated star relation is a cache of the expansion route."""
        _, f_den, _, _ = fusion.generic_relation_polys()
        label = mlam(s)
        star = next(r for r in fusion.constraint_system(label).rows if r.name == "star")
        (col,) = TOOL._star_row_polys(label)
        assert star.polys == (col * f_den.evaluate({"s": s}),)

    def test_vacuum_system_is_the_level_one_singular_row(self):
        # the first primary of M+ above the vacuum, J, sits at degree 4, so
        # the relation has no star row; L(-1)|0> = 0 gives the row x - y
        system = fusion.constraint_system(mplus())
        x, y = MultiPoly.var("x"), MultiPoly.var("y")
        assert [r.name for r in system.rows] == ["singular-vector", "singular-vector-mirror"]
        assert [r.polys for r in system.rows] == [(x - y,)] * 2
        assert system.signs == (1,)
        assert system.ngens == 1

    @pytest.mark.parametrize(
        "label,names",
        [
            (mlam(F(9, 2)), ["singular-vector", "singular-vector-mirror"]),
            (mlam(F(2)), ["star", "star-mirror", "singular-vector", "singular-vector-mirror"]),
            (mtheta_plus(), ["star", "star-mirror"]),
            (mlam(F(8)), ["star", "star-mirror", "singular-vector", "singular-vector-mirror"]),
        ],
        ids=str,
    )
    def test_rows_follow_the_decomposition(self, label, names):
        """s = 9/2 has its first primary at degree 4, outside the expansion
        generators, so the relation has no star row there; s = 8 has its
        first at degree 5 and takes the generated relations, where the
        circle relation degenerates."""
        assert [r.name for r in fusion.constraint_system(label).rows] == names

    def test_special_charges_raise_on_generic_polys(self):
        f_num, f_den, _, _ = fusion.generic_relation_polys()
        # the generic denominator vanishes exactly at the special charges
        for s in (F(0), F(1, 2), F(2), F(9, 2)):
            assert f_den.evaluate({"s": s}) == 0
        assert f_den.evaluate({"s": F(1, 3)}) != 0

    def test_circle_denominator_vanishes_at_eight(self):
        _, _, g_num, g_den = fusion.generic_relation_polys()
        assert g_den.evaluate({"s": F(8)}) == 0
        assert g_den.evaluate({"s": F(5)}) != 0


# squared charges, squares of rationals among them
_CHARGES = st.one_of(
    st.fractions(min_value=F(1, 12), max_value=50, max_denominator=12),
    st.fractions(min_value=F(1, 7), max_value=7, max_denominator=7).map(lambda r: r * r),
)


class TestWitnesses:
    def test_witness_matches_closed_form(self):
        labels = CONCRETE
        for m in labels:
            for n in labels:
                for l in labels:
                    w = fusion.find_witness(m, n, l)
                    assert (w is not None) == bool(
                        expected_fusion(m, n, l)
                    ), (m, n, l)

    def test_witnesses_verify(self):
        triples = [
            (mplus(), mplus(), mplus()),
            (mminus(), mminus(), mplus()),
            (mtheta_plus(), mtheta_plus(), mplus()),
            (mtheta_plus(), mtheta_minus(), mminus()),
            (mlam(F(2)), mlam(F(2)), mplus()),
            (mlam(F(1, 2)), mtheta_minus(), mtheta_minus()),
            (mlam(F(1, 2)), mlam(F(1, 2)), mlam(F(2))),
        ]
        for m, n, l in triples:
            assert fusion.find_witness(m, n, l) is not None

    @given(_CHARGES, _CHARGES, _CHARGES, st.sampled_from([None, 0, 1]))
    def test_matched_charges_solve_the_symmetric_condition(self, s, t, u, pick):
        """u is a matched charge of (s, t) exactly when the symmetric
        polynomial of expected_fusion vanishes; `pick` replaces u by one of
        the matched charges, which a random u seldom is."""
        matched = fusion._matched_charges(s, t)
        if pick is not None and pick < len(matched):
            u = matched[pick]
        sym3 = s * s + t * t + u * u - 2 * s * t - 2 * s * u - 2 * t * u
        assert (u in matched) == (sym3 == 0)
        assert all(v > 0 for v in matched)


class TestDecide:
    @pytest.mark.parametrize(
        "m,n,l,verdict",
        [
            ("Mtheta+", "Mtheta+", "Mtheta+", 0),
            ("Mtheta+", "Mtheta+", "M+", 1),
            ("Mtheta+", "Mtheta-", "M-", 1),
            ("M-", "M-", "M+", 1),
            ("M-", "M+", "M+", 0),
            ("M(s=2)", "M(s=2)", "M+", 1),
            ("M(s=2)", "M(s=1/2)", "M+", 0),
            ("M(s=1/2)", "Mtheta-", "Mtheta-", 1),
            ("M(s=1/2)", "M(s=1/2)", "M(s=2)", 1),
            ("M(s=2)", "M(s=2)", "M(s=8)", 1),
            ("M(s=2)", "M(s=2)", "M(s=5)", 0),
        ],
    )
    def test_known_verdicts(self, m, n, l, verdict):
        cert = fusion.decide(
            ModuleLabel.parse(m), ModuleLabel.parse(n), ModuleLabel.parse(l)
        )
        assert cert.verdict == verdict

    def test_certificate_schema(self):
        cert = fusion.decide(mminus(), mminus(), mplus())
        data = json.loads(cert.to_json())
        assert set(data) == {"m", "n", "l", "verdict", "reason", "permutation"}
        assert data["verdict"] in (0, 1)

    def test_zero_certificate_names_argument(self):
        cert = fusion.decide(mtheta_plus(), mtheta_plus(), mtheta_plus())
        assert cert.verdict == 0
        assert "witness" not in cert.reason

    def test_label_constructions_agree(self):
        """The constructor, mlam and the parser make equal labels with one
        hash, so each finds the caches filled by the others."""
        labels = [ModuleLabel("Mlam", 2), mlam(F(2)), ModuleLabel.parse("M(s=2)")]
        assert all(lab == labels[0] for lab in labels)
        assert len({hash(lab) for lab in labels}) == 1
        assert len(set(labels)) == 1
        assert {labels[0]: 1}[labels[2]] == 1
        assert ModuleLabel.parse("M(s=4/2)") == labels[0]
        assert mlam(F(3)) != labels[0] and ModuleLabel("M+") != ModuleLabel("M-")

    def test_labels_are_interned(self):
        """Every way of making a label returns the one object of its
        (kind, s), copies and pickles included."""
        label = ModuleLabel("Mlam", 2)
        for same in (mlam(2), mlam(F(2)), ModuleLabel("Mlam", F(4, 2)),
                     ModuleLabel.parse("M(s=2)"), ModuleLabel.parse("M(s=4/2)"),
                     copy.copy(label), copy.deepcopy(label),
                     pickle.loads(pickle.dumps(label)), copy.deepcopy([label])[0]):
            assert same is label
        for make, parsed in ((mplus, "M+"), (mminus, "M-"), (mtheta_plus, "Mtheta+"),
                             (mtheta_minus, "Mtheta-")):
            assert make() is ModuleLabel(parsed) is ModuleLabel.parse(parsed)
            assert copy.deepcopy(make()) is make() is pickle.loads(pickle.dumps(make()))
        assert mplus() != "M+" and "M+" != mplus()
        assert label != (label.kind, label.s) and label != F(2)
        before = len(labels._INTERNED)
        assert ModuleLabel("Mlam", F(123457, 3)) is mlam(F(123457, 3))
        assert len(labels._INTERNED) == before + 1

    @pytest.mark.parametrize(
        "kind, s",
        [("Mlam", F(0)), ("Mlam", -3), ("Mlam", "2"), ("Mlam", 2.0), ("Mlam", None),
         ("M+", 2), ("M+", F(1)), ("Mother", None)],
        ids=str,
    )
    def test_bad_label_interns_nothing(self, kind, s):
        before = dict(labels._INTERNED)
        with pytest.raises(ValueError):
            ModuleLabel(kind, s)
        assert labels._INTERNED == before

    def test_table_uses_one_object_per_label(self):
        certs = list(fusion.full_table(STD_GRID))
        by_name = {}
        for cert in certs:
            for lab in (cert.m, cert.n, cert.l):
                assert by_name.setdefault(str(lab), lab) is lab
        assert len(by_name) == len(fusion.charge_closure(STD_GRID)) + 4

    def test_formal_charge_rejected(self):
        """A charge is a rational: a symbol, a text or an element of
        Q(sqrt(2)) is no charge."""
        for s in ("lam", "1/3", Scalar.lam(F(2))):
            with pytest.raises(ValueError):
                mlam(s)
            with pytest.raises(ValueError):
                ModuleLabel("Mlam", s)

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))), ids=str)
    def test_witnessed_bounds_in_every_order(self, order):
        """A one-generator first slot bounds a witnessed rule by one before any
        constraint system is evaluated; with two generators in every slot a
        constraint system of rank >= 1 does."""
        for triple, bound in (((mlam(F(1, 2)), mtheta_plus(), mtheta_plus()), 1),
                              ((mlam(F(1, 2)), mtheta_minus(), mtheta_minus()), 2)):
            m, n, l = (triple[i] for i in order)
            cert = fusion.decide(m, n, l)
            assert cert.verdict == 1 and cert.reason["bound"] == bound
            first = {"m": m, "n": n, "l": l}[cert.permutation[0]]
            if bound == 1:
                assert first is mtheta_plus() and set(cert.reason) == {"witness", "bound"}
            else:
                rank = cert.reason["rank_argument"].removeprefix("constraint system has rank ")
                assert int(rank) >= 1

    def test_symmetry_samples(self):
        triples = [
            (mminus(), mtheta_plus(), mtheta_minus()),
            (mlam(F(1, 2)), mlam(F(1, 2)), mplus()),
            (mlam(F(2)), mtheta_plus(), mtheta_plus()),
            (mlam(F(9, 2)), mlam(F(1, 2)), mlam(F(2))),
        ]
        for m, n, l in triples:
            v = fusion.decide(m, n, l).verdict
            assert fusion.decide(n, m, l).verdict == v
            assert fusion.decide(m, l, n).verdict == v


class TestTable:
    def test_charge_closure_single_pass(self):
        base = [F(1, 3), F(1, 2), F(2), F(9, 2), F(8), F(5)]
        closure = fusion.charge_closure(base)
        extra = sorted(set(closure) - set(base))
        assert extra == [F(4, 3), F(25, 2), F(18), F(20), F(49, 2), F(32)]

    def test_closure_only_rational_roots(self):
        closure = fusion.charge_closure([F(1, 3), F(5)])
        # sqrt(5/3) is irrational: no cross terms appear
        assert set(closure) == {F(1, 3), F(4, 3), F(5), F(20)}

    def test_small_table_deterministic(self):
        certs1 = list(fusion.full_table([F(2)]))
        certs2 = list(fusion.full_table([F(2)]))
        assert fusion.table_to_csv(certs1) == fusion.table_to_csv(certs2)
        data = json.loads(fusion.table_to_json(certs1))
        assert len(data) == len(certs1)

    def test_small_table_matches_closed_form(self):
        certs = list(fusion.full_table([F(2)]))
        for cert in certs:
            assert cert.verdict == expected_fusion(
                cert.m, cert.n, cert.l
            ), (cert.m, cert.n, cert.l)

    def test_first_certificate_decides_one_triple(self, monkeypatch):
        calls = []
        real = fusion.decide
        monkeypatch.setattr(fusion, "decide", lambda m, n, l: calls.append((m, n, l)) or real(m, n, l))
        cert = next(iter(fusion.full_table(GENERIC_GRID)))
        assert calls == [(cert.m, cert.n, cert.l)]

    def test_json_drops_each_certificate_once_rendered(self):
        """When the table yields its k-th certificate, table_to_json holds
        none of the k - 1 before it; the text is still the standard
        library's rendering of the whole list."""
        refs, alive = [], []

        def watched():
            for cert in fusion.full_table(GENERIC_GRID):
                alive.append(sum(ref() is not None for ref in refs))
                refs.append(weakref.ref(cert))
                yield cert

        text = fusion.table_to_json(watched())
        assert len(refs) == 768  # 8 first and second slots, 12 targets
        assert alive == [0] * len(refs)
        certs = fusion.full_table(GENERIC_GRID)
        assert text == json.dumps([c.as_dict() for c in certs], sort_keys=True, indent=1)


    def test_empty_table_json(self):
        assert fusion.table_to_json(iter([])) == json.dumps([], indent=1) == "[]"

    def test_standard_grid_json_matches_the_standard_library(self):
        """The skeleton, the label and permutation texts and the reason
        templates render the standard grid as json.dumps does; its table
        quotes every reason type, templated or not."""
        certs = list(fusion.full_table(STD_GRID))
        reasons = {c.reason.get("type") or "witness-bound-%d" % c.reason["bound"] for c in certs}
        assert reasons == {
            "witness-bound-1", "witness-bound-2", "invariant-separation",
            "nonzero-constraint", "generator-column-forced", "full-rank",
        }
        assert fusion.table_to_json(iter(certs)) == json.dumps(
            [c.as_dict() for c in certs], sort_keys=True, indent=1
        )

    @pytest.mark.parametrize(
        "reason",
        [
            {"type": "nonzero-constraint", "row": "star", "value": "1", "extra": "x"},
            {"type": "invariant-separation", "detail": "d", "point": {"a_L": "0"}},
            {"witness": {"tag": "t", "detail": "d", "more": None}, "bound": 1},
            {"witness": {"tag": "t", "detail": "d"}, "bound": 2, "rank_argument": "r"},
            {"type": "nonzero-constraint", "row": "\"q\"", "value": "é"},
            {"type": "invariant-separation", "detail": "d", "point": ["a_L", "a_N", "b_L", "b_N"]},
            {"witness": ["detail", "tag"], "bound": 1},
            {"witness": {"tag": "t", "detail": "d"}, "bound": 1, "type": None},
        ],
        ids=["extra-key", "short-point", "extra-witness-key", "bound-2", "escaped", "list-point",
             "list-witness", "typed-witness"],
    )
    def test_reason_off_the_templates(self, reason):
        """A reason whose keys differ from a template's still renders as
        json.dumps does, and strings are escaped."""
        cert = fusion.FusionCertificate(mplus(), mminus(), mlam(F(2)), 0, reason, ["n", "m", "l"])
        want = json.dumps([cert.as_dict()], sort_keys=True, indent=1)
        assert fusion.table_to_json([cert]) == want


class TestValueTypes:
    """The record types are plain classes and named tuples: values compare
    and hash by their fields, and the immutable ones refuse assignment."""

    def test_label_equality_and_hash(self):
        labels = [mplus(), mminus(), mtheta_plus(), mtheta_minus(), mlam(F(2)), mlam(F(1, 3))]
        for a in labels:
            for b in labels:
                assert (a == b) == ((a.kind, a.s) == (b.kind, b.s))
            assert a is ModuleLabel(a.kind, a.s)
            assert a == ModuleLabel(a.kind, a.s) and not a != ModuleLabel(a.kind, a.s)
            assert a != (a.kind, a.s) and (a.kind, a.s) != a
            assert str(a) == ("M(s=%s)" % a.s if a.kind == "Mlam" else a.kind)
            assert eval(repr(a), {"ModuleLabel": ModuleLabel, "Fraction": F}) == a

    def test_label_is_immutable(self):
        lab = mlam(F(2))
        for name in ("kind", "s", "other"):
            with pytest.raises(AttributeError):
                setattr(lab, name, F(3))
            with pytest.raises(AttributeError):
                delattr(lab, name)
        assert lab == mlam(F(2)) and str(lab) == "M(s=2)" and lab.a_M() == 1

    @pytest.mark.parametrize("label", CONCRETE + [mlam(F(7, 3))], ids=str)
    def test_label_invariants(self, label):
        if label.kind == "Mlam":
            assert (label.a_M(), label.b_M()) == (label.s / 2, label.s**2 - label.s / 2)
        pair = {"M+": (0, 0), "M-": (1, -6), "Mtheta+": (F(1, 16), F(3, 128)),
                "Mtheta-": (F(9, 16), F(-45, 128))}.get(label.kind)
        assert pair is None or (label.a_M(), label.b_M()) == pair

    def test_records(self):
        from voaf.virasoro import DescendantWord

        assert Sector(False, F(2)) == Sector.untwisted(2) != Sector.twisted_sector()
        assert hash(Sector.untwisted(2)) == hash(Sector.untwisted(F(2)))
        assert str(Sector.untwisted(F(2))) == "untwisted(lam^2=2)"
        assert DescendantWord(1, (2, 1)) == DescendantWord(1, (2, 1))
        assert str(DescendantWord(1, (2, 1))) == "L(-2)L(-1)g1"
        row = fusion.ConstraintRow("star", (MultiPoly.var("x"),), False)
        assert row == fusion.ConstraintRow("star", (MultiPoly.var("x"),), False)
        assert zhu.o_membership(FockVector.zero(Sector.untwisted(None)), mplus(), 2).member
        image = phi(mplus().top_vector())
        assert image.phase == 0 and type(image.phase) is F
        assert image.vector == mplus().top_vector()
        assert phi(FockVector.basis(Sector.untwisted(None), (1, 1))).phase == 0  # w0 = 2
        for value, name in [(Sector.untwisted(2), "s"), (image, "phase"),
                            (DescendantWord(0, ()), "gen"), (row, "name")]:
            with pytest.raises(AttributeError):
                setattr(value, name, None)

    def test_certificate(self):
        cert = fusion.decide(mminus(), mminus(), mplus())
        same = fusion.decide(mminus(), mminus(), mplus())
        assert cert == same and cert is not same
        assert cert != fusion.decide(mplus(), mplus(), mminus())
        assert weakref.ref(cert)() is cert
        assert "verdict=1" in repr(cert)
        cert.verdict = 0
        assert cert != same


def _ladder_level(label):
    """The singular-vector level n + 1 when the top weight is n^2/4."""
    wt = label.sector().weight_offset_rat() + label.top_vector().max_degree()
    root = rational_sqrt(4 * wt)
    if root is None or root.denominator != 1:
        return None
    return root.numerator + 1


def _word_images(label):
    """Every PBW word at the singular level and its image of the top vector."""
    words = virasoro.words_at_level(0, _ladder_level(label))
    v = label.top_vector()
    return words, [virasoro.L_word(w.ms, v) for w in words]


def _row_from_kernel(label, words, images, kernel, rational):
    """The contraction polynomial of a one-dimensional kernel, after checking
    that the combination annihilates the top vector."""
    if len(kernel) != 1:
        return None
    sector = label.sector()
    wt = sector.weight_offset_rat() + label.top_vector().max_degree()
    poly = MultiPoly()
    for w, c in zip(words, kernel[0]):
        if c:
            poly = poly + zhu.descendant_to_poly(w.ms, wt) * rational(c)
    check = FockVector.zero(sector)
    for img, c in zip(images, kernel[0]):
        check = check + img.scale(c)
    assert check.is_zero()
    return poly


def _reference_singular_row_poly(label):
    """The singular-vector row by elimination over Scalar in Q(sqrt(s)) of
    the images of every PBW word at the singular level."""
    words, images = _word_images(label)
    parts = sorted({p for img in images for p in img.terms})
    rows = [[img.terms.get(p, 0) for img in images] for p in parts]
    kernel = linalg.nullspace(rows, len(words))
    return _row_from_kernel(label, words, images, kernel, lambda c: Scalar.of(c).as_rat())


def _lam_parts(c):
    """The rational pair (c0, c1) with c = c0 + c1*lam."""
    if c.mod is None:
        return c.as_rat(), F(0)
    c0, c1 = c.num + (F(0),) * (2 - len(c.num))
    return c0, c1


def _rational_reference_singular_row_poly(label):
    """The singular-vector row by a rational nullspace: at c = 1, h = n^2/4
    the singular vector is rational while lam = n/sqrt(2) is not, so the
    word images' lam^0 and lam^1 parts are stacked and eliminated over Q."""
    words, images = _word_images(label)
    split = [{p: _lam_parts(c) for p, c in img.terms.items()} for img in images]
    parts = sorted({p for img in images for p in img.terms})
    rows = [[cs.get(p, (0, 0))[i] for cs in split] for i in (0, 1) for p in parts]
    kernel = linalg.nullspace(rows, len(words))
    return _row_from_kernel(label, words, images, kernel, F)


LADDER = [mplus(), mminus()] + [mlam(F(n * n, 2)) for n in range(1, 9)]


class TestSingularRow:
    """The closed-form (Benoit-Saint-Aubin) singular-vector row matches two
    eliminations over the PBW word images: over Q(sqrt(s)) and over Q."""

    @pytest.mark.parametrize("label", LADDER, ids=str)
    def test_matches_quadratic_extension_elimination(self, label):
        ref = _reference_singular_row_poly(label)
        assert ref is not None
        got = fusion._singular_row_poly(label)
        assert got == ref
        assert str(got) == str(ref)

    @pytest.mark.parametrize("label", LADDER, ids=str)
    def test_matches_rational_nullspace(self, label):
        ref = _rational_reference_singular_row_poly(label)
        assert ref is not None
        got = fusion._singular_row_poly(label)
        assert got == ref
        assert str(got) == str(ref)

    @pytest.mark.parametrize("s", [F(81, 2), F(50), F(128)], ids=str)
    def test_high_ladder_row_has_level_n_plus_1(self, s):
        label = mlam(s)
        got = fusion._singular_row_poly(label)
        assert got is not None
        degree = max(sum(e) for e in got.num)
        assert degree == _ladder_level(label) == rational_sqrt(2 * s) + 1

    def test_no_row_off_the_ladder(self):
        for label in (mtheta_plus(), mtheta_minus(), mlam(F(1, 3))):
            assert fusion._singular_row_poly(label) is None

    @pytest.mark.parametrize("label", [mminus(), mlam(F(2)), mlam(F(8))], ids=str)
    def test_tainted_action_fails_annihilation_check(self, label, monkeypatch):
        # the closed form applies no L, so a tainted L leaves it as it is; the
        # checks that apply L, the word-image elimination and the verify
        # suite's singular-vector images, catch the taint
        row = fusion._singular_row_poly(label)
        assert row is not None
        real = virasoro.L

        def tainted(n, v):
            # scale every image by 1 + lam, or by 2 where there is no lam
            mod = v.sector.s
            return real(n, v).scale(Scalar.of(2) if mod is None else Scalar.one() + Scalar.lam(mod))

        monkeypatch.setattr(virasoro, "L", tainted)
        assert fusion._singular_row_poly(label) == row
        assert _rational_reference_singular_row_poly(label) != row
        failed = {name for name, ok, _ in suite_virasoro() if not ok}
        assert {n for n in failed if n.startswith("singular-vector image vanishes")} == {
            "singular-vector image vanishes at weight %s" % w for w in ("1", "1/4", "9/4")
        }

    def test_closed_form_uses_no_word_images_or_nullspace(self):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fusion._singular_row_poly)))
        names = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        assert not names & {
            "nullspace", "L_word", "words_at_level", "L", "FockVector", "top_vector", "sector",
        }

    def test_fusion_imports_only_the_decision_modules(self):
        # a function-level import (the verify_step3_generic forwarder's) is
        # not a module-level one
        tree = ast.parse(Path(fusion.__file__).read_text(encoding="utf-8"))
        package = set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level:
                package |= {node.module} if node.module else {a.name for a in node.names}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                # the package is imported relatively
                names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
                assert all(name.split(".")[0] != "voaf" for name in names)
        assert package <= {"labels", "linalg", "multipoly", "scalars"}

    def test_t40_ladder_query_applies_no_l(self, monkeypatch):
        # every row of M(s=800) vanishes at the t_40 point, the singular row
        # at level 41 included, so the walk builds that row; it applies no L
        label = mlam(F(800))
        monkeypatch.delitem(fusion._SYSTEM_CACHE, label, raising=False)

        def unreachable(n, v):
            raise AssertionError("L(%s) applied" % n)

        monkeypatch.setattr(virasoro, "L", unreachable)
        t = mlam(F(1197, 6394))
        cert = fusion.decide(label, t, t)
        assert cert.verdict == 0
        assert cert.permutation == ["n", "m", "l"]
        assert cert.reason["type"] == "nonzero-constraint"
        assert cert.reason["row"] == "star"
        assert [row.name for row in fusion.constraint_system(label).singular] == [
            "singular-vector", "singular-vector-mirror",
        ]


# first slots for the lazy-row properties: every label kind but M+, whose
# arrangements are settled by invariant separation without a system
LAZY_FIRST = [mminus(), mtheta_plus(), mtheta_minus(), mlam(F(9, 2))] + [
    mlam(F(n * n, 2)) for n in range(1, 7)
]
charged = st.fractions(min_value=F(1, 12), max_value=F(20), max_denominator=12).map(mlam)
first_slots = st.one_of(st.sampled_from(LAZY_FIRST), charged)
other_slots = st.one_of(st.sampled_from(LAZY_FIRST + [mplus()]), charged)


def _eager_certificate(system, n, l):
    """The one-column certificate from the full matrix: its first nonzero row."""
    matrix, names = fusion._evaluate_system(system, n, l)
    for row, name in zip(matrix, names):
        if row[0] != 0:
            return {"type": "nonzero-constraint", "row": name, "value": str(row[0])}
    return None


class TestLazyRows:
    """A one-column system is decided by its first nonzero row; rows after
    it, the singular-vector pair included, are built and evaluated only when
    a walk reaches them."""

    def test_cold_high_ladder_query_never_builds_the_singular_row(self, monkeypatch):
        label = mlam(F(512))
        monkeypatch.delitem(fusion._SYSTEM_CACHE, label, raising=False)

        def unreachable(label):
            raise AssertionError("singular row of %s built" % label)

        monkeypatch.setattr(fusion, "_singular_row_poly", unreachable)
        cert = fusion.decide(label, mlam(F(1, 3)), mlam(F(5)))
        assert cert.verdict == 0
        assert cert.permutation == ["m", "n", "l"]
        assert cert.reason == {
            "type": "nonzero-constraint",
            "row": "star",
            "value": "12909062293025/36",
        }

    def test_singular_row_is_built_and_quoted_when_reached(self, monkeypatch):
        # every row of the ladder charge M(s=8) vanishes at the t_4 point, so
        # its walk reaches and builds the singular pair, and quotes nothing
        label = mlam(F(8))
        monkeypatch.delitem(fusion._SYSTEM_CACHE, label, raising=False)
        built = []
        real = fusion._singular_row_poly
        monkeypatch.setattr(fusion, "_singular_row_poly", lambda lab: built.append(lab) or real(lab))
        assert fusion._prove_zero(label, mlam(F(9, 58)), mlam(F(9, 58))) is None
        assert built == [label]
        assert [r.name for r in fusion.constraint_system(label).singular] == [
            "singular-vector", "singular-vector-mirror",
        ]
        # a second walk reuses the cached row
        fusion.decide(label, mlam(F(9, 58)), mlam(F(9, 58)))
        assert built == [label]
        # M(s=9/2) has no star row, so its walk starts at the singular pair,
        # which systems.json holds: no vector is built for it
        label = mlam(F(9, 2))
        monkeypatch.delitem(fusion._SYSTEM_CACHE, label, raising=False)
        cert = fusion.decide(label, mlam(F(1, 2)), mlam(F(1, 2)))
        assert built == [mlam(F(8))]
        assert cert.permutation == ["m", "n", "l"]
        assert cert.reason == {
            "type": "nonzero-constraint",
            "row": "singular-vector",
            "value": "-135/256",
        }

    def test_ncols_does_not_force_the_rows(self, monkeypatch):
        label = mlam(F(8))
        monkeypatch.delitem(fusion._SYSTEM_CACHE, label, raising=False)

        def unbuilt(label):
            raise LookupError("singular row of %s built" % label)

        monkeypatch.setattr(fusion, "_singular_row_poly", unbuilt)
        system = fusion.constraint_system(label)
        assert (system.ngens, system.ncols) == (1, 1)
        with pytest.raises(LookupError):
            system.rows

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(first_slots, other_slots, other_slots)
    def test_lazy_walk_matches_the_full_system(self, m, n, l):
        cache = fusion._SYSTEM_CACHE
        cache.pop(m, None)
        lazy = fusion._prove_zero(m, n, l)
        partial = cache[m]
        cache.pop(m)
        fresh = fusion.constraint_system(m)
        assert fresh is not partial
        assert partial.rows == fresh.rows
        assert (partial.ngens, partial.ncols) == (fresh.ngens, fresh.ncols)
        if fresh.ngens == 1 and fresh.ncols == 1:
            assert lazy == _eager_certificate(fresh, n, l)

    def test_lazy_walk_matches_the_full_system_on_the_grid(self):
        """Every one-column first slot of GRID_LABELS against the standard
        grid's pairs: the triples where a star row vanishes and a later row
        decides are few, and a random draw seldom meets them."""
        base = fusion.base_labels(STD_GRID)
        targets = base[:2] + [mlam(s) for s in fusion.charge_closure(STD_GRID)] + base[-2:]
        checked = 0
        for m in GRID_LABELS:
            if m == mplus():  # settled by invariant separation, not its rows
                continue
            system = fusion.constraint_system(m)
            if (system.ngens, system.ncols) != (1, 1):
                continue
            for n in base:
                for l in targets:
                    assert fusion._prove_zero(m, n, l) == _eager_certificate(system, n, l), (m, n, l)
                    checked += 1
        assert checked == 18 * 10 * 16

    def test_generic_table_evaluation_count(self, monkeypatch):
        """Deciding the generic golden grid evaluates 481 polynomials with
        rows on demand (1820 when every row of a system is evaluated): the
        circle's g_den(s) is evaluated only where a walk reaches it."""
        monkeypatch.setattr(fusion, "_SYSTEM_CACHE", {})
        calls = []
        real = MultiPoly.evaluate
        monkeypatch.setattr(MultiPoly, "evaluate", lambda p, point: calls.append(1) or real(p, point))
        list(fusion.full_table(GENERIC_GRID))
        assert len(calls) == 481

    def test_generic_table_clears_each_polynomial_once(self, monkeypatch):
        """From empty caches, deciding the generic golden grid builds the
        cleared form of each evaluated polynomial exactly once: ten forms
        serve the 481 evaluations of test_generic_table_evaluation_count."""
        monkeypatch.setattr(fusion, "_SYSTEM_CACHE", {})
        fusion._relation.cache_clear()
        fusion._fixed.cache_clear()
        evaluated, cleared = {}, []
        real_evaluate, real_clear = MultiPoly.evaluate, MultiPoly._clear

        def evaluate(p, point):
            evaluated[id(p)] = p
            return real_evaluate(p, point)

        def clear(p):
            cleared.append(p)
            return real_clear(p)

        monkeypatch.setattr(MultiPoly, "evaluate", evaluate)
        monkeypatch.setattr(MultiPoly, "_clear", clear)
        list(fusion.full_table(GENERIC_GRID))
        assert sorted(map(id, cleared)) == sorted(evaluated)
        assert len(cleared) == 10

    @staticmethod
    def _forbid_circles(monkeypatch):
        monkeypatch.setattr(fusion, "_SYSTEM_CACHE", {})

        def unreachable(label):
            raise AssertionError("circle rows of %s built" % label)

        monkeypatch.setattr(fusion, "_circle_rows", unreachable)

    def test_cold_ladder_query_never_builds_the_circle(self, monkeypatch):
        self._forbid_circles(monkeypatch)
        cert = fusion.decide(mlam(F(18)), mtheta_minus(), mlam(F(1, 3)))
        assert cert.verdict == 0
        assert cert.permutation == ["m", "n", "l"]
        assert cert.reason["row"] == "star"

    @pytest.mark.parametrize("grid", [STD_GRID, GENERIC_GRID], ids=["standard", "generic"])
    def test_golden_tables_never_build_a_circle(self, monkeypatch, grid):
        self._forbid_circles(monkeypatch)
        certs = list(fusion.full_table(grid))
        assert all(c.verdict == expected_fusion(c.m, c.n, c.l) for c in certs)

    def test_circle_is_built_once_and_quoted_when_reached(self, monkeypatch):
        # the star row of M(s=1/3) vanishes at both arrangements below
        label = mlam(F(1, 3))
        monkeypatch.delitem(fusion._SYSTEM_CACHE, label, raising=False)
        built = []
        real = fusion._circle_rows
        monkeypatch.setattr(
            fusion, "_circle_rows", lambda lab: built.append(lab) or real(lab)
        )
        cert = fusion._prove_zero(label, mminus(), mlam(F(3)))
        assert built == [label]
        assert cert == {"type": "nonzero-constraint", "row": "circle", "value": "50/27"}
        cert = fusion._prove_zero(label, mlam(F(3)), mminus())
        assert built == [label]
        assert cert == {"type": "nonzero-constraint", "row": "circle", "value": "-50/27"}

    @pytest.mark.parametrize("n, t", [(4, F(9, 58)), (12, F(7, 38))], ids=["n=4", "n=12"])
    def test_ladder_query_builds_the_singular_stage_once(self, monkeypatch, n, t):
        """(M(n^2/2), M(t_n), M(t_n)) is decided by a star row of the second
        arrangement, (n, m, l).  The ladder slot is tried first, and there
        every row vanishes at the point, so the singular stage of M(n^2/2) is
        built, and checked on vectors, although no certificate quotes it."""
        monkeypatch.setattr(fusion, "_SYSTEM_CACHE", {})
        ladder = mlam(F(n * n, 2))
        built = []
        real = fusion._singular_rows
        monkeypatch.setattr(fusion, "_singular_rows", lambda lab: built.append(lab) or real(lab))
        cert = fusion.decide(ladder, mlam(t), mlam(t))
        assert cert.verdict == 0
        assert cert.permutation == ["n", "m", "l"]
        assert cert.reason["row"] == "star"
        assert built.count(ladder) == 1

    def test_cold_builds_solve_once_per_expansion(self, monkeypatch):
        """The derivation of the systems with extra expansion generators
        solves for each J_n(top) and for the star relation once; the engine
        reads those systems and solves nothing."""
        monkeypatch.setattr(fusion, "_SYSTEM_CACHE", {})
        zhu._generators.cache_clear()
        calls = []
        real = virasoro.express_in_descendants
        monkeypatch.setattr(
            virasoro, "express_in_descendants", lambda v, gens: calls.append(1) or real(v, gens)
        )
        counts = []
        for label in (mlam(F(1, 2)), mtheta_minus(), mtheta_plus(), mlam(F(2))):
            before = len(calls)
            TOOL.system(label)
            fusion.constraint_system(label).rows
            counts.append(len(calls) - before)
        assert counts == [4, 4, 1, 1]

    @pytest.mark.parametrize(
        "s, names",
        [
            (F(8), ["star", "star-mirror", "singular-vector", "singular-vector-mirror"]),
            (F(1, 3), ["star", "star-mirror", "circle", "circle-mirror"]),
        ],
    )
    def test_full_rows_keep_their_names(self, monkeypatch, s, names):
        label = mlam(s)
        monkeypatch.delitem(fusion._SYSTEM_CACHE, label, raising=False)
        assert [row.name for row in fusion.constraint_system(label).rows] == names
