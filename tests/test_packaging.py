"""The data files that the package reads at run time ship with it.

voaf.fusion reads relation_polys.json and voaf.step3 reads
step3_cofactors.json beside their modules; setuptools installs only the
.py files of a package unless pyproject.toml declares the others as
package data.
"""

from pathlib import Path

import pytest

import voaf

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

SRC = Path(voaf.__file__).parent
ROOT = SRC.parents[1]


def _package_data():
    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    return set(config["tool"]["setuptools"]["package-data"]["voaf"])


def test_both_data_files_are_declared():
    assert {"relation_polys.json", "step3_cofactors.json"} <= _package_data()


def test_every_data_file_in_the_package_is_declared():
    files = {p.name for p in SRC.iterdir() if p.is_file() and p.suffix != ".py"}
    assert files and files <= _package_data()
