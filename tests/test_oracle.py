"""Every verdict and character against the engine-free oracle, on random
draws.

bench/oracle.py derives the fusion rules of the orbifold modules and their
graded dimensions from closed forms and imports nothing from `voaf`.  It is
loaded here by path, as tests/test_tracer_targets.py loads the tracer.
Triples are drawn from M+, M-, Mtheta+, Mtheta- and M(s), with s among
generic rationals, the ladder charges n^2/2, the special charges 1/2, 2,
9/2 and 8, and the t_n partners of the ladder; triples of matched charges
(sqrt(s) +- sqrt(t))^2, equal pairs and the ladder triples
(M(n^2/2), M(t_n), M(t_n)) are drawn on purpose.  Each triple is decided
in all six orderings.  All these modules are self-dual, so the verdict is
the same for every ordering, and the orderings are decided by different
arrangements.
"""

import importlib.util
import itertools
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from voaf import characters, fusion
from voaf.labels import ModuleLabel

ROOT = Path(__file__).resolve().parents[1]


def _oracle():
    spec = importlib.util.spec_from_file_location("bench_oracle", ROOT / "bench" / "oracle.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


ORACLE = _oracle()

UNCHARGED = ["M+", "M-", "Mtheta+", "Mtheta-"]
# t_n with n^2/2: both star rows of M(n^2/2) vanish at N = L = M(t_n)
T_N = {4: Fraction(9, 58), 12: Fraction(7, 38)}

_GENERIC = st.fractions(min_value=Fraction(1, 12), max_value=12, max_denominator=12)
_LADDER = st.integers(1, 12).map(lambda n: Fraction(n * n, 2))
_CHARGE = st.one_of(
    _GENERIC.filter(lambda s: s > 0),
    _LADDER,
    st.sampled_from([Fraction(1, 2), Fraction(2), Fraction(9, 2), Fraction(8)]),
    st.sampled_from(sorted(T_N.values())),
)
_LABEL = st.one_of(st.sampled_from(UNCHARGED), _CHARGE.map(ORACLE.label))


@st.composite
def _triple(draw):
    shape = draw(st.sampled_from(["any", "equal pair", "matched", "ladder"]))
    if shape == "any":
        return tuple(draw(_LABEL) for _ in range(3))
    if shape == "equal pair":
        x = draw(_LABEL)
        return x, x, draw(_LABEL)
    if shape == "matched":
        # t = s*k^2 makes sqrt(st) = s*k rational; u = (sqrt(s) +- sqrt(t))^2
        s = draw(_CHARGE)
        k = draw(st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6))
        u = s * (1 + k) ** 2 if draw(st.booleans()) or k == 1 else s * (1 - k) ** 2
        return ORACLE.label(s), ORACLE.label(s * k * k), ORACLE.label(u)
    n = draw(st.sampled_from(sorted(T_N)))
    t = ORACLE.label(T_N[n])
    return ORACLE.label(Fraction(n * n, 2)), t, t


@given(_triple())
@settings(max_examples=300, deadline=None)
def test_decide_agrees_with_the_oracle_in_every_ordering(texts):
    labels = [ModuleLabel.parse(x) for x in texts]
    want = ORACLE.fusion_verdict(*texts)
    for perm in itertools.permutations(range(3)):
        got = fusion.decide(*(labels[i] for i in perm)).verdict
        assert got == want == ORACLE.fusion_verdict(*(texts[i] for i in perm)), perm


@given(st.one_of(st.sampled_from(UNCHARGED + ["Mtheta"]), _CHARGE.map(ORACLE.label)),
       st.integers(0, 24))
@settings(max_examples=60, deadline=None)
def test_char_agrees_with_the_oracle(module, cutoff):
    label = module if module == "Mtheta" else ModuleLabel.parse(module)
    series = characters.graded_dimension(label, Fraction(cutoff))
    assert series.to_json() == ORACLE.char_terms(module, cutoff)
