"""The number rule lives in one module: no other package source decides what a number is."""

import re
from pathlib import Path

import rcreg

SOURCES = sorted(Path(rcreg.__file__).parent.glob("*.py"))
VARIANT = re.compile(r"\bnumbers\.|\bimport numbers\b|\bfrom numbers\b|\bsys\.float_info\b")


def test_number_rule_only_in_errors():
    assert len(SOURCES) >= 8 and "errors.py" in {path.name for path in SOURCES}
    found = [f"{path.name}:{i}" for path in SOURCES if path.name != "errors.py"
             for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
             if VARIANT.search(line)]
    assert found == []
