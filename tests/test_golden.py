"""Byte-for-byte replay of committed CLI outputs.

Each file under tests/golden/ is the stdout of one `voaf` command, recorded
before the refactor that first had to keep it.  Any refactor must reproduce
every byte; a change that alters an output on purpose records the new file
and says why.
"""

from pathlib import Path

import pytest

from voaf import cli

GOLDEN_DIR = Path(__file__).parent / "golden"

STD_GRID = "1/3,1/2,2,9/2,8,5"
# four generic charges: 445 of the 768 verdicts quote the value of a
# constraint row evaluated at non-integral top weights
GENERIC_GRID = "3,5/4,22/9,13/7"

GOLDENS = {
    "fusion_table.csv": ["fusion-table", "--lambda-squares", STD_GRID],
    "fusion_table.json": ["fusion-table", "--lambda-squares", STD_GRID, "--format", "json"],
    "fusion_table_generic.json": [
        "fusion-table", "--lambda-squares", GENERIC_GRID, "--format", "json"
    ],
    "table41.txt": ["table41"],
    "table41.json": ["table41", "--json"],
    "char_Mplus.json": ["char", "--module", "M+", "--cutoff", "20", "--json"],
    "char_Mminus.json": ["char", "--module", "M-", "--cutoff", "20", "--json"],
    "char_Ms1_3.json": ["char", "--module", "M(s=1/3)", "--cutoff", "20", "--json"],
    "char_Mthetaplus.json": ["char", "--module", "Mtheta+", "--cutoff", "20", "--json"],
    "char_Mthetaminus.json": ["char", "--module", "Mtheta-", "--cutoff", "20", "--json"],
    "char_Mtheta.json": ["char", "--module", "Mtheta", "--cutoff", "20", "--json"],
    "verify_twisted.txt": ["verify", "--suite", "twisted", "--verbose"],
    "verify_zhu.txt": ["verify", "--suite", "zhu", "--verbose"],
    "verify_step3.txt": ["verify", "--suite", "step3", "--verbose"],
    "verify_virasoro.txt": ["verify", "--suite", "virasoro", "--verbose"],
    "verify_characters.txt": ["verify", "--suite", "characters", "--verbose"],
    "verify_fusion.txt": ["verify", "--suite", "fusion", "--verbose"],
    # parse_state and the depth conversion in all four sector kinds
    "reduce_Mplus.txt": ["reduce", "--module", "M+", "--expr", "h(-1)h(-1)|0>"],
    "reduce_Mminus.txt": ["reduce", "--module", "M-", "--expr", "h(-1)h(-1)h(-1)|0>"],
    "reduce_Ms2.txt": [
        "reduce", "--module", "M(s=2)", "--expr", "h(-1)h(-1)e^lam + lam*h(-2)e^lam"
    ],
    "reduce_Mthetaplus.txt": ["reduce", "--module", "Mtheta+", "--expr", "h(-3/2)h(-1/2)1theta"],
    "reduce_Mthetaminus.txt": ["reduce", "--module", "Mtheta-", "--expr", "h(-5/2)1theta"],
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden_output(name, capsys, monkeypatch):
    monkeypatch.delenv("VOAF_CUTOFF", raising=False)  # sets the zhu and characters cutoffs
    code = cli.main(list(GOLDENS[name]))
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN_DIR / name).read_text(encoding="utf-8")


# The six singular-ladder queries of the seed-0 standard-grid benchmark
# workload: each ladder charge of the grid's closure in the first slot,
# decided by its own constraint system.
LADDER_QUERIES = [
    ("M(s=25/2)", "M(s=8)", "Mtheta-"),
    ("M(s=32)", "M(s=8)", "M(s=1/2)"),
    ("M(s=25/2)", "M(s=1/3)", "M(s=8)"),
    ("M(s=18)", "M(s=5)", "M(s=9/2)"),
    ("M(s=49/2)", "M(s=8)", "M(s=2)"),
    ("M(s=18)", "M(s=2)", "M(s=1/2)"),
]


def test_ladder_certificates(capsys):
    out = []
    for m, n, l in LADDER_QUERIES:
        assert cli.main(["fusion", "--m", m, "--n", n, "--l", l, "--certificate"]) == 0
        out.append(capsys.readouterr().out)
    assert "".join(out) == (GOLDEN_DIR / "fusion_ladder_certificates.txt").read_text(encoding="utf-8")


def test_relation_polys():
    """The star, circle and second circle relations of a charged module,
    recorded from the formal-charge (Q(lam)) contraction."""
    from voaf import fusion

    pairs = fusion.generic_relation_polys() + fusion.second_circle_relation_polys()
    names = ("f_num", "f_den", "g_num", "g_den", "h_num", "h_den")
    out = "".join("%s = %s\n" % (n, p) for n, p in zip(names, pairs))
    assert out == (GOLDEN_DIR / "relation_polys.txt").read_text(encoding="utf-8")
