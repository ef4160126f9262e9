"""Golden formula-side outputs: the canonical text of every closed form the
suite and the regular corpus exercise must not change.

Each line of `data/golden_formulas.txt` is `<id> <graph> <digest>`: the
identity id, the graph label, and the sha256 of `format_bipoly` of the
formula side (or `hypothesis-not-met` where the hypothesis fails).  The
cases are every `alphapoly suite` row, then the twelve regular identities
over the connected regular corpus with n <= 7.  Regenerate (only when an
output change is intended) with

    PYTHONPATH=src python tests/test_golden.py > tests/data/golden_formulas.txt
"""

import hashlib
from pathlib import Path

from alphapoly.cli import _suite_rows
from alphapoly.closedforms import IDENTITIES, HypothesisNotMet
from alphapoly.corpus import regular_corpus
from alphapoly.polynomials import format_bipoly

GOLDEN = Path(__file__).parent / "data" / "golden_formulas.txt"

REGULAR_IDS = ("complement-regular", "line-regular-aalpha", "line-regular-a",
               "subdivision-aalpha", "subdivision-a", "rgraph-aalpha",
               "rgraph-a", "qgraph-line", "qgraph-aalpha", "qgraph-a",
               "total-aalpha", "total-a")


def _cases():
    yield from _suite_rows()
    for desc, g in regular_corpus(7, min_r=1):
        for identity in REGULAR_IDS:
            yield identity, (g,), desc


def golden_lines():
    for identity, args, label in _cases():
        try:
            text = format_bipoly(IDENTITIES[identity].formula(*args))
        except HypothesisNotMet:
            digest = "hypothesis-not-met"
        else:
            digest = hashlib.sha256(text.encode()).hexdigest()
        yield f"{identity} {label} {digest}"


def test_formula_sides_match_golden_file():
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = list(golden_lines())
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


if __name__ == "__main__":
    for line in golden_lines():
        print(line)
