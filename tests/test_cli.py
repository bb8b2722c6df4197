"""Command-line interface: subcommands, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voaf import cli, fusion, suites, vertexops, virasoro, zhu
from voaf.reduce import parse_state
from voaf.fock import FockVector, Sector

F = Fraction


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable41:
    def test_text_output(self, capsys):
        code, out, err = run(capsys, "table41")
        assert code == 0
        assert "M+" in out and "Mtheta-" in out
        assert "3/128" in out and "-45/128" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "table41", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["verified"] is True
        rows = {r["module"]: (r["a"], r["b"]) for r in data["rows"]}
        assert rows["M-"] == ("1", "-6")
        assert rows["Mtheta+"] == ("1/16", "3/128")


class TestChar:
    def test_mplus_q4_coefficient(self, capsys):
        code, out, _ = run(capsys, "char", "--module", "M+", "--cutoff", "4",
                           "--json")
        assert code == 0
        data = json.loads(out)
        terms = {k: Fraction(v) for k, v in data["terms"]}
        assert terms[str(F(4) - F(1, 24))] == 3

    def test_charged_module(self, capsys):
        code, out, _ = run(capsys, "char", "--module", "M(s=2)")
        assert code == 0
        assert "q^" in out

    def test_charge_of_any_denominator(self, capsys):
        code, out, err = run(capsys, "char", "--module", "M(s=1/5)", "--cutoff", "3")
        assert code == 0 and err == ""
        assert out.startswith("1 q^{7/120}")

    def test_twisted_combined(self, capsys):
        code, out, _ = run(capsys, "char", "--module", "Mtheta", "--cutoff", "3")
        assert code == 0

    def test_bad_module_exit_2(self, capsys):
        code, _, err = run(capsys, "char", "--module", "bogus")
        assert code == 2
        assert "error" in err

    def test_cutoff_env(self, capsys, monkeypatch):
        monkeypatch.setenv("VOAF_CUTOFF", "3")
        code, out3, _ = run(capsys, "char", "--module", "M+", "--json")
        monkeypatch.setenv("VOAF_CUTOFF", "5")
        code5, out5, _ = run(capsys, "char", "--module", "M+", "--json")
        assert code == 0 and code5 == 0
        assert len(json.loads(out5)["terms"]) > len(json.loads(out3)["terms"])

    @pytest.mark.parametrize(
        "given,label",
        [(" M+ ", "M+"), ("M(s=04)", "M(s=4)"), ("M(s=2/4)", "M(s=1/2)"),
         ("Mtheta", "Mtheta"), (" Mtheta ", "Mtheta"), ("Mtheta-", "Mtheta-")],
    )
    def test_json_names_the_canonical_label(self, capsys, given, label):
        code, out, _ = run(capsys, "char", "--module", given, "--cutoff", "3", "--json")
        _, want, _ = run(capsys, "char", "--module", label, "--cutoff", "3", "--json")
        assert code == 0 and json.loads(out)["module"] == label
        assert out == want

    def test_negative_cutoff_exit_2(self, capsys):
        code, out, err = run(capsys, "char", "--module", "M+", "--cutoff", "-5")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestFusion:
    def test_verdict_line(self, capsys):
        code, out, _ = run(capsys, "fusion", "--m", "M-", "--n", "M-",
                           "--l", "M+")
        assert code == 0
        assert out.strip() == "N(M-, M-; M+) = 1"

    def test_certificate_json(self, capsys):
        code, out, _ = run(capsys, "fusion", "--m", "Mtheta+", "--n", "Mtheta+",
                           "--l", "Mtheta+", "--certificate")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == 0
        assert data["reason"]

    def test_bad_label_exit_2(self, capsys):
        code, _, err = run(capsys, "fusion", "--m", "M?", "--n", "M+",
                           "--l", "M+")
        assert code == 2
        assert "error" in err

    def test_nonpositive_charge_exit_2(self, capsys):
        for argv in (
            ["fusion", "--m", "M(s=-2)", "--n", "M(s=-2)", "--l", "M+"],
            ["fusion", "--m", "M(s=0)", "--n", "M+", "--l", "M(s=0)"],
            ["fusion-table", "--lambda-squares=-1,2"],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1

    def test_missing_argument_exit_2(self, capsys):
        code, _, _ = run(capsys, "fusion", "--m", "M+")
        assert code == 2

    def test_zero_denominator_exit_2(self, capsys):
        for argv in (
            ["fusion", "--m", "M(s=1/0)", "--n", "M+", "--l", "M+"],
            ["fusion-table", "--lambda-squares", "1/0"],
            ["reduce", "--module", "M+", "--expr", "h(-1/0)|0>"],
            ["reduce", "--module", "M+", "--expr", "1/0 h(-1)h(-1)|0>"],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("grid", ["", ",", "2,,3", " ", "2,"])
    def test_empty_lambda_square_entry_exit_2(self, capsys, grid):
        code, out, err = run(capsys, "fusion-table", "--lambda-squares", grid)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "grid", ["0.5", "1e3", "1_000", "+3", "2,1.5", "1/-3", "2/3/4", "1/3 1/2", "s"]
    )
    def test_lambda_square_outside_label_grammar_exit_2(self, capsys, grid):
        """--lambda-squares takes the charges of M(s=...) labels: p or p/q."""
        code, out, err = run(capsys, "fusion-table", "--lambda-squares", grid)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("label", ["M(s=0.5)", "M(s=1e3)", "M(s=+3)"])
    def test_label_charge_outside_grammar_exit_2(self, capsys, label):
        code, out, err = run(capsys, "fusion", "--m", label, "--n", "M+", "--l", "M+")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_lambda_squares_take_blanks_around_entries(self, capsys):
        code, out, _ = run(capsys, "fusion-table", "--lambda-squares", " 2 ")
        code2, out2, _ = run(capsys, "fusion-table", "--lambda-squares", "2")
        assert code == code2 == 0
        assert out == out2


# The argument grammar.  Every required option is present and each value
# is passed as --option=value, so argparse accepts the command line and
# every value, well formed or not, reaches the engine.
_CHARGE = st.builds(lambda p, q: str(p) if q == 1 else "%d/%d" % (p, q),
                    st.integers(1, 12), st.integers(1, 12))
_BAD = st.sampled_from(["", " ", "0", "-1", "1/0", "0.5", "+3", "1e3", "x", "2/3/4", "M"])


def _mostly(good, bad):
    """Draws from `good` three times in four, from `bad` otherwise."""
    return st.integers(0, 3).flatmap(lambda i: bad if i == 0 else good)


_LABEL = _mostly(st.one_of(st.sampled_from(["M+", "M-", "Mtheta+", "Mtheta-"]),
                           _CHARGE.map("M(s={})".format)),
                 st.one_of(_BAD, _BAD.map("M(s={})".format)))
_GRID = st.lists(_mostly(_CHARGE, _BAD), min_size=1, max_size=3).map(",".join)
_DEPTHS = st.lists(st.sampled_from(["1", "2", "3", "1/2", "3/2", "5/2"]), max_size=4).filter(
    lambda ds: sum(map(Fraction, ds)) <= 6)
_TERM = st.builds(lambda c, ds, top: c + "".join("h(-%s)" % d for d in ds) + top,
                  st.sampled_from(["", "2*", "-1/3*", "lam*"]), _DEPTHS,
                  st.sampled_from(["|0>", "e^lam", "1theta"]))
_EXPR = _mostly(st.lists(_TERM, min_size=1, max_size=2).map(" - ".join),
                st.sampled_from(["", "h(-1)h(", "h(-0)|0>", "h(-1)", "2**h(-1)|0>", "h(-1/3)|0>"]))
_FLAG = st.sampled_from([[], ["--json"]])
_ARGV = st.one_of(
    st.builds(lambda m, n, l, c: ["fusion", "--m=" + m, "--n=" + n, "--l=" + l] + c,
              _LABEL, _LABEL, _LABEL, st.sampled_from([[], ["--certificate"]])),
    st.builds(lambda m, c, f: ["char", "--module=" + m] + c + f,
              st.one_of(_LABEL, st.just("Mtheta")),
              st.sampled_from([[]] + [["--cutoff=%d" % k] for k in range(-2, 7)]), _FLAG),
    st.builds(lambda m, e: ["reduce", "--module=" + m, "--expr=" + e], _LABEL, _EXPR),
    st.builds(lambda g, f: ["fusion-table", "--lambda-squares=" + g] + f, _GRID,
              st.sampled_from([[], ["--format=csv"], ["--format=json"]])),
    st.builds(lambda f: ["table41"] + f, _FLAG),
)


@given(_ARGV)
@settings(max_examples=100, deadline=None)
def test_exit_code_contract(argv):
    """Every command line of the grammar exits 0, 1, 2 or 3 without an
    escaping exception; exits 2 and 3 print exactly one stderr line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


class TestUsageErrors:
    """Usage errors from the argument parser are one stderr line, as the
    engine's are; --help is unchanged."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["reduce", "--module", "M+"], "the following arguments are required: --expr"),
            (["bogus"], "argument command: invalid choice: 'bogus'"),
            (["fusion-table", "--lambda-squares", "2", "--format", "xml"],
             "argument --format: invalid choice: 'xml'"),
            (["reduce", "--module", "M+", "--expr", "-1/3*|0>"],
             "argument --expr: expected one argument"),
        ],
    )
    def test_one_line(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: " + message) and err.count("\n") == 1

    def test_option_value_with_leading_minus(self, capsys):
        code, out, _ = run(capsys, "reduce", "--module", "M+", "--expr=-1/3*|0>")
        assert code == 0
        assert "gen0 1: -1/3" in out

    @pytest.mark.parametrize("argv", [["--help"], ["fusion", "--help"]])
    def test_help_unchanged(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert out.startswith("usage: voaf") and err == ""


def _voaf_env():
    env = {k: v for k, v in os.environ.items() if k != "VOAF_CUTOFF"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    return env


def test_closed_pipe_exits_quietly():
    """`voaf fusion-table ... | head -1`: the reader closes the pipe after
    one line; the rest of the output is dropped without a traceback.  The
    table (about 190 kB) outgrows the pipe's buffer, so the writer is still
    writing when the pipe closes."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "voaf.cli", "fusion-table", "--lambda-squares",
         "3,5/4,22/9,13/7", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_voaf_env(),
    )
    assert proc.stdout.readline() == b"[\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_import_loads_no_dataclasses():
    """Every command starts by importing voaf.cli; dataclasses (and the
    inspect module it pulls in) stay out of that path."""
    probe = "import sys, voaf.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=_voaf_env())
    assert out.stdout == "[]\n"


class TestFusionTable:
    def test_csv_deterministic(self, capsys):
        code, out1, _ = run(capsys, "fusion-table", "--lambda-squares", "2")
        code2, out2, _ = run(capsys, "fusion-table", "--lambda-squares", "2")
        assert code == 0 and code2 == 0
        assert out1 == out2
        header = out1.splitlines()[0]
        assert "verdict" in header

    def test_square_beyond_float_range(self, capsys):
        code, out, err = run(capsys, "fusion-table", "--lambda-squares",
                             "1" + "0" * 400 + ",4")
        assert code == 0, err
        assert out.splitlines()[0].startswith("m,")

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "fusion-table", "--lambda-squares", "2",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert all(entry["verdict"] in (0, 1) for entry in data)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_inconclusive_triple_prints_no_table(self, capsys, monkeypatch, fmt):
        """The table is written only once every triple is decided: an
        Inconclusive midway leaves stdout empty."""
        calls = []
        real = fusion.decide

        def decide(m, n, l):
            calls.append((m, n, l))
            if len(calls) == 5:
                raise fusion.Inconclusive("no arrangement decides (%s, %s, %s)" % (m, n, l))
            return real(m, n, l)

        monkeypatch.setattr(fusion, "decide", decide)
        code, out, err = run(capsys, "fusion-table", "--lambda-squares", "2,3", "--format", fmt)
        assert code == 3
        assert out == ""
        assert err.startswith("inconclusive:") and err.count("\n") == 1
        assert len(calls) == 5


class TestReduce:
    def test_descendant_coordinates(self, capsys):
        code, out, _ = run(capsys, "reduce", "--module", "M+",
                           "--expr", "h(-1)h(-1)|0>")
        assert code == 0
        assert "coordinates:" in out
        assert "contraction polynomials:" in out

    def test_foreign_state_exit_2(self, capsys):
        code, _, err = run(capsys, "reduce", "--module", "M+",
                           "--expr", "h(-1)|0>")
        assert code == 2
        assert "error" in err

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "reduce", "--module", "M+",
                           "--expr", "h(-1)h(")
        assert code == 2

    def test_failure_prints_no_partial_output(self, capsys):
        # h(-1)^4|0> has a component along the primary J, outside the
        # Virasoro span of the vacuum
        code, out, err = run(capsys, "reduce", "--module", "M+",
                             "--expr", "h(-1)h(-1)h(-1)h(-1)|0>")
        assert code == 2
        assert out == ""
        assert err == "error: state is not a Virasoro descendant of the module generators\n"

    @pytest.mark.parametrize(
        "module, expr, expected",
        [
            # one generator: no rescale, the contraction is lam times P1
            ("M(s=2)", "h(-2)e^lam",
             "coordinates:\n"
             "  gen0 L(-1)L(-1): -1/6*lam\n"
             "  gen0 L(-2): 2/3*lam\n"
             "contraction polynomials:\n"
             "  gen0: lam*(-1/6 x^2 + 1/3 x y - 1/6 y^2 - 1/6 x + 5/6 y + 1/3)\n"),
            ("M(s=2)", "lam*e^lam",
             "coordinates:\n  gen0 1: lam\ncontraction polynomials:\n  gen0: lam*(1)\n"),
            # P0 is the contraction of h(-1)h(-1)e^lam, P1 that of h(-2)e^lam
            ("M(s=2)", "h(-2)e^lam + h(-1)h(-1)e^lam",
             "coordinates:\n"
             "  gen0 L(-1)L(-1): 2/3 - 1/6*lam\n"
             "  gen0 L(-2): -2/3 + 2/3*lam\n"
             "contraction polynomials:\n"
             "  gen0: 2/3 x^2 - 4/3 x y + 2/3 y^2 - 4/3 x + 2/3 y + 2/3"
             " + lam*(-1/6 x^2 + 1/3 x y - 1/6 y^2 - 1/6 x + 5/6 y + 1/3)\n"),
            # a theta-odd state over the theta-even generators: every
            # coordinate is lam times a rational, gen1's too
            ("M(s=1/2)", "h(-2)e^lam",
             "coordinates:\n"
             "  gen0 L(-2): 4/3*lam\n"
             "  gen1 1: 2/3*lam\n"
             "contraction polynomials:\n"
             "  gen0: lam*(-4/3 x + 8/3 y + 1/3)\n"
             "  gen1: lam*(2/3)\n"),
        ],
    )
    def test_lam_coordinates_give_lam_contractions(self, capsys, module, expr, expected):
        code, out, err = run(capsys, "reduce", "--module", module, "--expr", expr)
        assert (code, out, err) == (0, expected, "")

    def test_irrational_coordinate_rescales_the_extra_generator(self, capsys):
        # over the plain-basis primary of M(s=1/2) the coordinate is
        # -2/3*lam; over the theta-even generator, lam times that primary, it
        # is rational
        code, out, err = run(capsys, "reduce", "--module", "M(s=1/2)",
                             "--expr", "h(-1)h(-1)e^lam")
        assert (code, err) == (0, "")
        assert "  gen1 1: -2/3\n" in out
        assert "  gen0: -2/3 x + 4/3 y + 1/6\n" in out

    @pytest.mark.parametrize("expr", ["", " "])
    def test_empty_expression_exit_2(self, capsys, expr):
        code, out, err = run(capsys, "reduce", "--module", "M+", "--expr", expr)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("expr", ["e^lam e^lam", "h(-1)e^lam 2*e^lam", "e^lam * e^lam"])
    def test_juxtaposed_terms_exit_2(self, capsys, expr):
        # terms are joined by + or -; two terms side by side are not summed
        code, out, err = run(capsys, "reduce", "--module", "M(s=2)", "--expr", expr)
        assert (code, out) == (2, "")
        assert err.startswith("error: terms must be joined by + or -") and err.count("\n") == 1

    def test_cancelling_sum_is_valid(self, capsys):
        code, out, _ = run(capsys, "reduce", "--module", "M+",
                           "--expr", "h(-1)h(-1)|0> - h(-1)h(-1)|0>")
        assert code == 0
        assert "gen0: 0" in out


class TestParseState:
    def test_descendant(self):
        sec = Sector.untwisted(None)
        v = parse_state("h(-3)h(-1)|0>", sec)
        assert v == FockVector.basis(sec, (F(3), F(1)))

    def test_scalar_prefix_and_sum(self):
        sec = Sector.untwisted(None)
        v = parse_state("2*h(-1)h(-1)|0> - h(-2)|0>", sec)
        assert v == FockVector(sec, {(F(1), F(1)): 2, (F(2),): -1})

    def test_charged_terminal(self):
        sec = Sector.untwisted(F(2))
        v = parse_state("h(-1)e^lam", sec)
        assert v == FockVector.basis(sec, (F(1),))

    def test_twisted_half_modes(self):
        sec = Sector.twisted_sector()
        v = parse_state("h(-1/2)1theta", sec)
        assert v == FockVector.basis(sec, (F(1, 2),))

    def test_wrong_terminal_raises(self):
        with pytest.raises(ValueError):
            parse_state("e^lam", Sector.untwisted(None))

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            parse_state("x(-1)|0>", Sector.untwisted(None))


class TestVerify:
    def test_characters_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "characters")
        assert code == 0
        assert "FAIL" not in out

    def test_unknown_suite_exit_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "nonsense")
        assert code == 2

    @pytest.mark.parametrize("value", ["abc", "1.5", ""])
    def test_non_integer_env_cutoff_exit_2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("VOAF_CUTOFF", value)
        code, out, err = run(capsys, "char", "--module", "M+")
        assert code == 2
        assert out == ""
        assert err == "error: VOAF_CUTOFF must be an integer, got %r\n" % value

    def test_negative_env_cutoff_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("VOAF_CUTOFF", "-3")
        code, out, err = run(capsys, "verify", "--suite", "characters")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def _long_part(v):
    """The monomials of v with two or more parts."""
    long = FockVector(v.sector)
    long.terms = {p: c for p, c in v.terms.items() if len(p) >= 2}
    return long


class TestSuiteCaches:
    def test_zhu_suite_output_is_keyed_by_cutoff(self, capsys, monkeypatch):
        """The membership columns are cached per (module, cutoff): a run at
        the default cutoff after one at VOAF_CUTOFF=5 prints what it prints
        from a cleared cache, and builds its own columns."""
        argv = ("verify", "--suite", "zhu", "--verbose")

        def runs(cutoffs, clear_each):
            outs = []
            zhu._membership_columns.cache_clear()
            for cut in cutoffs:
                if clear_each:
                    zhu._membership_columns.cache_clear()
                if cut is None:
                    monkeypatch.delenv("VOAF_CUTOFF", raising=False)
                else:
                    monkeypatch.setenv("VOAF_CUTOFF", cut)
                code, out, _ = run(capsys, *argv)
                assert code == 0
                outs.append(out)
            return outs

        warm = runs(["5", None], clear_each=False)
        # M+ and M- at cutoff 5, then at cutoff 6
        assert zhu._membership_columns.cache_info().misses == 4
        assert warm == runs(["5", None], clear_each=True)
        assert "cutoff 5" in warm[0] and "cutoff 6" in warm[1]

    def test_virasoro_suite_catches_a_tainted_L(self, monkeypatch):
        """With L(2) doubled on untwisted monomials of two or more parts,
        the stored L images still expose the broken commutators."""
        real = virasoro.L

        def tainted(n, v):
            img = real(n, v)
            if n != 2 or v.sector.twisted:
                return img
            return img + real(n, _long_part(v))

        monkeypatch.setattr(virasoro, "L", tainted)
        checks = {name: ok for name, ok, _ in cli.suite_virasoro()}
        assert not checks["Virasoro commutators (central charge 1) on the untwisted sector"]
        assert checks["Virasoro commutators (central charge 1) on the twisted sector"]
        assert checks["Heisenberg commutators on the untwisted sector"]
        assert checks["Heisenberg commutators on the twisted sector"]

    def test_virasoro_suite_catches_a_tainted_mode(self, monkeypatch):
        """With h(1) doubled on untwisted monomials of two or more parts,
        the stored mode images still expose the broken commutators."""
        real = FockVector.apply_mode

        def tainted(v, n):
            img = real(v, n)
            if n != 1 or v.sector.twisted:
                return img
            return img + real(_long_part(v), n)

        monkeypatch.setattr(FockVector, "apply_mode", tainted)
        checks = {name: ok for name, ok, _ in cli.suite_virasoro()}
        assert not checks["Heisenberg commutators on the untwisted sector"]
        assert checks["Heisenberg commutators on the twisted sector"]
        assert checks["Virasoro commutators (central charge 1) on the untwisted sector"]
        assert checks["Virasoro commutators (central charge 1) on the twisted sector"]

    def test_zhu_suite_catches_a_tainted_product(self, monkeypatch):
        """With the sign of every creation term of a depth-one field flipped
        in the vertex-operator recursion, the lowest-weight table and the
        quartic relation's membership both fail."""
        real = vertexops.gen_binom

        def tainted(x, k):
            # the recursion asks for C(-m/2 - 1, 0) at a creation mode h(m/2),
            # m <= -2; the correction table only for x = -1/2
            return -real(x, k) if k == 0 and x >= 0 else real(x, k)

        monkeypatch.setattr(vertexops, "gen_binom", tainted)
        zhu._membership_columns.cache_clear()
        vertexops._field_binom.cache_clear()
        try:
            checks = {name: ok for name, ok, _ in cli.suite_zhu()}
        finally:
            zhu._membership_columns.cache_clear()
            vertexops._field_binom.cache_clear()
        assert not checks["lowest-weight table recomputation"]
        assert not checks["quartic relation element lies in the degree-zero ideal"]

    def test_zhu_suite_catches_a_sign_flip_of_depth_two_creation_terms(
        self, monkeypatch, capsys
    ):
        """With the sign of every creation term h(k), k <= -1, of a
        depth-two field flipped in the vertex-operator recursion, `verify
        --suite zhu` fails.  Only the anti-map sample on M- sees it: the
        lowest-weight table and the ideal memberships still pass."""
        real = vertexops._field_binom

        def tainted(m, n):
            # doubled mode m and depth n: h(m/2) in d^{(n/2-1)}h(z)/(n/2-1)!
            c = real(m, n)
            return -c if n == 4 and m <= -2 else c

        monkeypatch.setattr(vertexops, "_field_binom", tainted)
        monkeypatch.delenv("VOAF_CUTOFF", raising=False)
        zhu._membership_columns.cache_clear()
        try:
            code = cli.main(["verify", "--suite", "zhu"])
        finally:
            zhu._membership_columns.cache_clear()
        out = capsys.readouterr().out.splitlines()
        assert code == 1
        assert [line for line in out if line.startswith("FAIL")] == [
            "FAIL [zhu] anti-map exchanges the two products (sample wt 4 on untwisted)"
        ]


def _add(key, delta):
    def perturb(table):
        table[key] = table.get(key, F(0)) + delta

    return perturb


def _flip(key):
    def perturb(table):
        table[key] = -table[key]

    return perturb


def _drop(key):
    def perturb(table):
        del table[key]

    return perturb


class TestCmnTaylorOracle:
    @pytest.mark.parametrize(
        "perturb",
        [
            _add((3, 2), F(1, 1000)),
            _add((0, 0), F(1, 7)),
            _add((5, 4), F(1)),
            # total degree 8, the last one compared at max_total = 8
            _flip((8, 0)),
            _add((4, 4), F(1, 1000)),
            _drop((1, 1)),
        ],
        ids=[
            "perturbed-coefficient",
            "constant-term",
            "past-total-degree",
            "flipped-sign-at-degree-8",
            "perturbed-at-degree-8",
            "dropped-coefficient",
        ],
    )
    def test_rejects_a_wrong_table(self, monkeypatch, perturb):
        good = suites.cmn_table

        def bad(max_total):
            table = dict(good(max_total))
            perturb(table)
            return table

        monkeypatch.setattr(suites, "cmn_table", bad)
        assert not suites._cmn_taylor_oracle(8)

    @pytest.mark.parametrize("max_total", range(4, 13))
    def test_accepts_the_true_table(self, max_total):
        assert suites._cmn_taylor_oracle(max_total)

    def test_rejects_a_table_perturbed_past_degree_8(self, monkeypatch):
        """At max_total = 12 the oracle compares entries of total degree 9 to
        12, which the check at 8 never builds, such as (5, 5)."""
        good = suites.cmn_table

        def bad(max_total):
            table = dict(good(max_total))
            _add((5, 5), F(1, 1000))(table)
            return table

        monkeypatch.setattr(suites, "cmn_table", bad)
        assert not suites._cmn_taylor_oracle(12)


# every command that reaches the twisted vertex operators: the verify
# suites, the two golden fusion-table grids and a twisted fusion query
_CMN_COMMANDS = [
    ["verify", "--suite", "all"],
    ["fusion-table", "--lambda-squares", "1/3,1/2,2,9/2,8,5"],
    ["fusion-table", "--lambda-squares", "3,5/4,22/9,13/7", "--format", "json"],
    ["fusion", "--m", "Mtheta-", "--n", "M-", "--l", "Mtheta+"],
]

_RECORD_CMN = """
import contextlib, io, json, sys
from voaf import cli, vertexops
real = vertexops.cmn_table
requests = []

def recorded(max_total=12):
    requests.append(max_total)
    return real(max_total)

vertexops.cmn_table = recorded
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps([codes, requests]))
"""


def test_engine_reads_the_correction_table_only_where_it_is_checked():
    """The twisted suite checks cmn_table to total degree 8 (the Taylor
    oracle at max_total = 8).  In a fresh process, so that no cache hides a
    request, no engine request reaches past that degree."""
    env = {k: v for k, v in os.environ.items() if k != "VOAF_CUTOFF"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _RECORD_CMN, json.dumps(_CMN_COMMANDS)],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    codes, requests = json.loads(out.stdout)
    assert codes == [0] * len(_CMN_COMMANDS)
    assert requests
    assert max(requests) <= 8
