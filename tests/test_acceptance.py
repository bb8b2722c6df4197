"""Acceptance gate: end-to-end correctness with wall-clock budgets.

Each test records its elapsed time with time.monotonic and asserts a
budget, so a pathological slowdown in the exact arithmetic shows up as a
failure rather than a hung run.

The constraint-polynomial tests compare the recomputed systems against
independently transcribed published forms.  Where the published text is
internally inconsistent (it fails its own stated identities), the tests
pin the recomputed form and record the exact deviation (a reported
rescaling, a single miscopied coefficient, or a sign).
"""

import time
from fractions import Fraction

from voaf import cli, fusion, suites, virasoro, zhu
from voaf.fock import FockVector, Sector
from voaf.labels import mlam, mminus, mplus, mtheta_minus, mtheta_plus
from voaf.multipoly import MultiPoly

F = Fraction

X, Y, Z = MultiPoly.var("x"), MultiPoly.var("y"), MultiPoly.var("z")
C = MultiPoly.const


class Timer:
    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        return False


def star_column(label, index=0):
    system = fusion.constraint_system(label)
    row = next(r for r in system.rows if r.name == "star")
    return row.polys[index]


def singular_column(label):
    system = fusion.constraint_system(label)
    row = next(r for r in system.rows if r.name == "singular-vector")
    return row.polys[0]


def test_c1_lowest_weight_table():
    with Timer() as t:
        rows, ok = suites.table41_rows()
    assert t.elapsed < 30
    assert ok
    table = {m: (a, b) for m, a, b in rows}
    assert table["M+"] == ("0", "0")
    assert table["M-"] == ("1", "-6")
    assert table["Mtheta+"] == ("1/16", "3/128")
    assert table["Mtheta-"] == ("9/16", "-45/128")
    # the charged row is symbolic in the squared charge s
    a, b = next((a, b) for m, a, b in rows if "lam" in m or "s" in a)
    assert a == "1/2*s"
    assert b in ("s^2 - 1/2*s", "-1/2*s + s^2")


def test_c2_quotient_ideal_vanishing():
    with Timer() as t:
        checks = suites._zhu_ideal_checks()
    assert t.elapsed < 1
    assert all(ok for _, ok, _ in checks), [c for c in checks if not c[1]]


def test_c3_relation_element_membership():
    with Timer() as t:
        result = zhu.o_membership(suites.relation_element(), mplus(), 6)
    assert t.elapsed < 60
    assert result.member
    # the certificate actually reproduces the element
    total = FockVector.zero(Sector.untwisted(None))
    for a, u, c in result.combination:
        total = total + zhu.circ(a, u).scale(c)
    assert total == suites.relation_element()


class TestC4ConstraintPolynomials:
    budget = 300.0

    @classmethod
    def setup_class(cls):
        cls.t0 = time.monotonic()

    @classmethod
    def teardown_class(cls):
        assert time.monotonic() - cls.t0 < cls.budget

    # -- vacuum-kind odd module ------------------------------------------

    def test_odd_vacuum_star_constraint(self):
        f = star_column(mminus())
        recomputed = (
            Z
            - X ** 3 * F(27, 2) + X * X * Y * 54 - X * Y * Y * F(135, 2)
            + Y ** 3 * 27
            + X * X * F(173, 4) + X * Y * F(9, 2) - Y * Y * F(207, 4)
            - X * F(95, 4) + Y * F(99, 4)
        )
        assert f == recomputed
        # published transcription: differs (it fails the symmetric identity
        # below, which the recomputed form satisfies exactly)
        printed = Z - X * X * 4 + X + (X - Y) * (
            X * X * 6 - X * Y * 18 - Y * Y * 12 - X * 21 - Y * 23 + C(11)
        ) * F(9, 4)
        assert f != printed

        def at(p, s, t):
            return p.evaluate({"x": s / 2, "y": t / 2, "z": s * s - s / 2})

        for s, t in ((F(1), F(3)), (F(2, 5), F(7)), (F(0), F(1, 2))):
            lhs = at(f, s, t) + at(f, t, s)
            assert lhs == F(9, 16) * (s - t) ** 2 * (3 * s + 3 * t - 2)

    def test_odd_vacuum_singular_constraint(self):
        g = singular_column(mminus())
        printed = (X - Y) * ((X - Y) ** 2 - X * 2 - Y * 2 + C(1)) * F(1, 2)
        # recomputed relation is exactly twice the published one
        assert g == printed * 2

    def test_twisted_point_evaluations(self):
        """The odd-vacuum star constraint evaluated with one charged and one
        twisted invariant pair, as univariate polynomials in the squared
        charge s.  Published forms: one overall sign error, one overall
        scalar error, two exact."""
        f = star_column(mminus())

        cases = [
            # (x, y, z as functions of s, printed closed form, ratio)
            (lambda s: (s / 2, F(1, 16), s * s - s / 2),
             lambda s: F(27, 4096) * (8 * s - 1) * (32 * s * s - 236 * s + 205),
             F(-1)),
            (lambda s: (F(1, 16), s / 2, F(3, 128)),
             lambda s: F(27, 4096) * (8 * s - 9) * (384 * s * s - 1160 * s + 131),
             F(1, 6)),
            (lambda s: (s / 2, F(9, 16), s * s - s / 2),
             lambda s: F(-9, 4096) * (8 * s - 9) * (96 * s * s - 996 * s + 119),
             F(1)),
            (lambda s: (F(9, 16), s / 2, F(-45, 128)),
             lambda s: F(9, 8192) * (8 * s - 1) * (384 * s * s - 2504 * s + 2211),
             F(1)),
        ]
        samples = [F(k, 7) for k in range(1, 10)]
        for point, printed, ratio in cases:
            for s in samples:
                x, y, z = point(s)
                val = f.evaluate({"x": x, "y": y, "z": z})
                assert val == ratio * printed(s), (x, y, z, s)

    # -- generic charged module -----------------------------------------

    def test_generic_star_vanishes_at_twisted_points(self):
        """For a generic charged first slot against equal twisted modules
        the fusion rule is one, so the star constraint must vanish there
        identically in the squared charge.  The recomputed form does; the
        published transcription evaluates to -27(s-3)(s-2)/(64(2s-9))."""
        f_num, f_den, _, _ = fusion.generic_relation_polys()
        for x, z in ((F(1, 16), F(3, 128)), (F(9, 16), F(-45, 128))):
            vanished = f_num.subs({"x": C(x), "y": C(x), "z": C(z)})
            assert vanished.is_zero()
        # and it is nonzero at a non-fusing point (odd vacuum-kind pair)
        assert not f_num.subs(
            {"x": C(F(1)), "y": C(F(1)), "z": C(F(-6))}
        ).is_zero()

    # -- special squared charges ------------------------------------------

    def test_s2_system(self):
        f1 = star_column(mlam(F(2)), 1)
        f2 = star_column(mlam(F(2)), 0)
        printed_f1 = C(F(3, 2)) + (X - Y) * F(21, 8)
        assert f1 == printed_f1  # published form exact
        printed_f2 = (
            Z + X * F(95, 8) - Y * F(99, 8)
            - X * X * F(173, 8) - X * Y * F(9, 4) + Y * Y * F(207, 8)
            + X ** 3 * F(47, 4) - X * X * Y * 27 + X * Y * Y * F(135, 4)
            - Y ** 3 * F(27, 2)
        )
        # published cubic has a single miscopied coefficient: 47/4 x^3
        # printed where the recomputation gives 27/4 x^3
        assert f2 == printed_f2 + X ** 3 * (F(27, 4) - F(47, 4))
        assert f2 != printed_f2

    def test_s92_system(self):
        g = singular_column(mlam(F(9, 2)))
        printed = (
            C(81) - (X + Y) * 72 + (X - Y) ** 2 * 16
        ) * (
            C(1) - (X + Y) * 8 + (X - Y) ** 2 * 16
        )
        # recomputed relation is the published one rescaled by 1/256
        assert g * 256 == printed

    def test_s12_system(self):
        f1 = star_column(mlam(F(1, 2)), 1)
        f2 = star_column(mlam(F(1, 2)), 0)
        g = singular_column(mlam(F(1, 2)))
        printed_f1 = (
            C(F(27, 128)) + X * F(13, 16) - Y * F(19, 16)
            + (X - Y) ** 2 * F(11, 16)
        )
        # published linear/quadratic constraint: recomputed is twice the
        # printed form except the quadratic coefficient, which must read
        # 11/8 instead of the printed 11/16 (single miscopied coefficient)
        corrected = printed_f1 + (X - Y) ** 2 * (F(11, 8) - F(11, 16))
        assert f1 == corrected * 2
        assert f1 != printed_f1 * 2
        printed_f2 = Z - C(F(3, 2)) + (X + Y) * 12 - (X - Y) ** 2 * 24
        assert f2 == printed_f2  # published form exact
        printed_g = C(F(-1, 16)) + (X + Y) * F(1, 2) - (X - Y) ** 2
        assert g == printed_g * (-1)  # recomputed sign is opposite

    # -- twisted modules ---------------------------------------------------

    def test_twisted_even_system(self):
        head = star_column(mtheta_plus(), 0)
        ucol = star_column(mtheta_plus(), 1)
        printed_f = C(F(1, 2)) + (X - Y) * F(8, 7)
        printed_g = (
            Z * 5 - C(F(135, 1792)) - X * F(1, 56) + Y * F(73, 28)
            - X * X * F(82, 7) + X * Y * F(212, 7) - Y * Y * F(180, 7)
            + (X - Y) ** 2 * (X * 5 + Y * 12) * F(32, 7)
            - (X - Y) ** 4 * F(256, 7)
        )
        # recomputed columns match the published ones up to the reported
        # rescalings: 9/5 on the auxiliary generator, 1/5 on the head
        assert ucol == printed_f * F(9, 5)
        assert head == printed_g * F(1, 5)

    def test_twisted_odd_point_values(self):
        system = fusion.constraint_system(mtheta_minus())
        row = next(r for r in system.rows if r.name == "star")
        pt = {"x": F(9, 16), "y": F(9, 16), "z": F(-45, 128)}
        head, ucol = (p.evaluate(pt) for p in row.polys)
        # published linear relation at the self-pairing point reads
        # (75/224) u - (135/256) head; the recomputed head coefficient is
        # exact and the u coefficient is -1/2 times the published one
        assert head == F(-135, 256)
        assert ucol == F(75, 224) * F(-1, 2)


def test_c5_generic_symbolic_suite():
    with Timer() as t:
        # raises on any failed identity; the report lists what was checked
        report = fusion.verify_step3_generic()
    assert t.elapsed < 300
    assert len(report) >= 10


def test_c6_full_fusion_table():
    grid = [F(1, 3), F(1, 2), F(2), F(9, 2), F(8), F(5)]
    with Timer() as t:
        certs = list(fusion.full_table(grid))
    assert t.elapsed < 600
    base = fusion.base_labels(grid)
    targets = fusion.base_labels(fusion.charge_closure(grid))
    assert len(certs) == len(base) ** 2 * len(targets)
    by_triple = {(c.m, c.n, c.l): c.verdict for c in certs}
    for cert in certs:
        assert cert.verdict == suites.expected_fusion(cert.m, cert.n, cert.l)
        # permutation symmetry of the verdict wherever the permuted triple
        # also appears in the table
        for perm in ((cert.n, cert.m, cert.l), (cert.m, cert.l, cert.n),
                     (cert.l, cert.n, cert.m)):
            if perm in by_triple:
                assert by_triple[perm] == cert.verdict, (cert, perm)


def test_c7_characters(monkeypatch):
    monkeypatch.delenv("VOAF_CUTOFF", raising=False)
    with Timer() as t:
        checks = cli.suite_characters()
    assert t.elapsed < 60
    assert all(ok for _, ok, _ in checks), [c for c in checks if not c[1]]


def test_c8_singular_vectors():
    combos = [
        (mminus(), [(2, (3,)), (-4, (2, 1)), (1, (1, 1, 1))]),
        (mlam(F(1, 2)), [(1, (1, 1)), (-1, (2,))]),
        (mlam(F(9, 2)), [(18, (4,)), (-14, (3, 1)), (-9, (2, 2)),
                         (10, (2, 1, 1)), (-1, (1, 1, 1, 1))]),
    ]
    with Timer() as t:
        for label, combo in combos:
            words = {virasoro.DescendantWord(0, ms): c for c, ms in combo}
            img = suites.reconstruct(words, [label.top_vector()])
            assert img.is_zero(), label
    assert t.elapsed < 10


def test_c9_structural_suites():
    with Timer() as t:
        for suite in (cli.suite_virasoro, cli.suite_twisted, cli.suite_zhu):
            checks = suite()
            assert all(ok for _, ok, _ in checks), \
                [c for c in checks if not c[1]]
    assert t.elapsed < 300
