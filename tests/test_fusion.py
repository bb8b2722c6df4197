"""Fusion decision procedure: constraint systems, witnesses, certificates."""

import json
from fractions import Fraction

import pytest

from voaf import fusion, linalg, virasoro, zhu
from voaf.fock import FORMAL, FockVector
from voaf.labels import ModuleLabel, mlam, mminus, mplus, mtheta_minus, mtheta_plus
from voaf.multipoly import MultiPoly
from voaf.scalars import Scalar, rational_sqrt

F = Fraction

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


class TestGenerators:
    def test_generator_counts(self):
        assert len(fusion.generator_set(mplus())) == 1
        assert len(fusion.generator_set(mminus())) == 1
        assert len(fusion.generator_set(mtheta_plus())) == 1
        assert len(fusion.generator_set(mtheta_minus())) == 2
        assert len(fusion.generator_set(mlam(F(1, 2)))) == 2
        assert len(fusion.generator_set(mlam(F(1, 3)))) == 1

    @pytest.mark.parametrize("label", CONCRETE, ids=str)
    def test_generator_hypothesis(self, label):
        assert fusion.verify_generator_hypothesis(label)


class TestConstraintSystems:
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


class TestWitnesses:
    def test_witness_matches_closed_form(self):
        labels = CONCRETE
        for m in labels:
            for n in labels:
                for l in labels:
                    w = fusion.find_witness(m, n, l)
                    assert (w is not None) == bool(
                        fusion.expected_fusion(m, n, l)
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
            assert fusion.verify_witness(m, n, l), (m, n, l)


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

    def test_formal_charge_rejected(self):
        with pytest.raises(fusion.UnsupportedParameter):
            fusion.decide(mlam(FORMAL), mplus(), mplus())

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
        certs1 = fusion.full_table([F(2)])
        certs2 = fusion.full_table([F(2)])
        assert fusion.table_to_csv(certs1) == fusion.table_to_csv(certs2)
        data = json.loads(fusion.table_to_json(certs1))
        assert len(data) == len(certs1)

    def test_small_table_matches_closed_form(self):
        certs = fusion.full_table([F(2)])
        for cert in certs:
            assert cert.verdict == fusion.expected_fusion(
                cert.m, cert.n, cert.l
            ), (cert.m, cert.n, cert.l)


def _reference_singular_row_poly(label):
    """The singular-vector row by elimination over Scalar in Q(sqrt(s)): the
    route `fusion._singular_row_poly` took before it solved over Q."""
    sector = label.sector()
    v = label.top_vector()
    wt = sector.weight_offset_rat() + v.max_degree()
    root = rational_sqrt(4 * wt)
    if root is None or root.denominator != 1:
        return None
    words = virasoro.words_at_level(0, root.numerator + 1)
    images = [virasoro.L_word(w.ms, v) for w in words]
    mod = sector.scalar_mod()
    zero, one = Scalar.zero(mod), Scalar.one(mod)
    parts = sorted({p for img in images for p in img.terms})
    rows = [[img.terms.get(p, zero) for img in images] for p in parts]
    kernel = linalg.nullspace(rows, len(words), zero, one)
    if len(kernel) != 1:
        return None
    poly = MultiPoly()
    for w, c in zip(words, kernel[0]):
        if not c.is_zero():
            poly = poly + zhu.descendant_to_poly(w.ms, wt) * c.as_rat()
    check = FockVector.zero(sector)
    for img, c in zip(images, kernel[0]):
        check = check + img.scale(c)
    assert check.is_zero()
    return poly


class TestSingularRow:
    """The singular-vector relation solved over Q matches the elimination
    over Q(sqrt(s)) in the vacuum sector and at the ladder charges n^2/2."""

    @pytest.mark.parametrize(
        "label",
        [mplus(), mminus()] + [mlam(F(n * n, 2)) for n in range(1, 7)],
        ids=str,
    )
    def test_matches_quadratic_extension_elimination(self, label):
        ref = _reference_singular_row_poly(label)
        assert ref is not None
        got = fusion._singular_row_poly(label)
        assert got == ref
        assert str(got) == str(ref)

    def test_no_row_off_the_ladder(self):
        for label in (mtheta_plus(), mtheta_minus(), mlam(F(1, 3))):
            assert fusion._singular_row_poly(label) is None

    def test_irrational_vacuum_entry_raises(self, monkeypatch):
        real = virasoro.L_word

        def tainted(ms, v):
            img = real(ms, v)
            part = next(iter(img.terms))
            return img + FockVector(img.sector, {part: Scalar.lam(None)})

        monkeypatch.setattr(virasoro, "L_word", tainted)
        with pytest.raises(ValueError):
            fusion._singular_row_poly(mminus())
