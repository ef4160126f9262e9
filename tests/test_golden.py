"""Golden outputs: the canonical text of every closed form the suite and the
regular corpus exercise, and of the direct side's charpolys, must not change.

Each line of `data/golden_formulas.txt` is `<id> <graph> <digest>`: the
identity id, the graph label, and the sha256 of `format_bipoly` of the
formula side (or `hypothesis-not-met` where the hypothesis fails).  The
cases are every `alphapoly suite` row, then the twelve regular identities
over the connected regular corpus with n <= 7.

Each line of `data/golden_direct.txt` is `<function> <graph> <digest>`, the
digest of `charpoly_direct` or `charpoly_submatrix_multi`: on seeded
`random_connected_graph` inputs of order 20-60 at two densities, on some of
them with one to three rows/columns removed, and on the connected regular
corpus with n <= 8.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py > tests/data/golden_formulas.txt
    PYTHONPATH=src python tests/test_golden.py direct > tests/data/golden_direct.txt
"""

import hashlib
import random
import sys
from pathlib import Path

from alphapoly.cli import _suite_rows
from alphapoly.closedforms import IDENTITIES, HypothesisNotMet
from alphapoly.corpus import random_connected_graph, regular_corpus
from alphapoly.engine import charpoly_direct, charpoly_submatrix_multi
from alphapoly.polynomials import format_bipoly

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_formulas.txt"
GOLDEN_DIRECT = DATA / "golden_direct.txt"

REGULAR_IDS = ("complement-regular", "line-regular-aalpha", "line-regular-a",
               "subdivision-aalpha", "subdivision-a", "rgraph-aalpha",
               "rgraph-a", "qgraph-line", "qgraph-aalpha", "qgraph-a",
               "total-aalpha", "total-a")


def _digest(p) -> str:
    return hashlib.sha256(format_bipoly(p).encode()).hexdigest()


def _cases():
    yield from _suite_rows()
    for desc, g in regular_corpus(7, min_r=1):
        for identity in REGULAR_IDS:
            yield identity, (g,), desc


def golden_lines():
    for identity, args, label in _cases():
        try:
            digest = _digest(IDENTITIES[identity].formula(*args))
        except HypothesisNotMet:
            digest = "hypothesis-not-met"
        yield f"{identity} {label} {digest}"


def direct_lines():
    randoms = {}
    for n in (20, 25, 30, 40, 60):
        for extra in (0.05, 0.2):
            label = f"random_connected({n},seed={n},extra={extra})"
            randoms[label] = g = random_connected_graph(n, random.Random(n), extra)
            yield f"charpoly_direct {label} {_digest(charpoly_direct(g))}"
    for removed in ((0,), (3, 11), (1, 7, 19)):
        for label in list(randoms)[:6:2]:  # n = 20, 25, 30 at extra 0.05
            p = charpoly_submatrix_multi(randoms[label], removed)
            cut = ",".join(map(str, removed))
            yield f"charpoly_submatrix_multi {label}-removed={cut} {_digest(p)}"
    for desc, g in regular_corpus(8):
        yield f"charpoly_direct {desc} {_digest(charpoly_direct(g))}"


def _assert_matches(path, lines):
    want = path.read_text(encoding="utf-8").splitlines()
    got = list(lines)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


def test_formula_sides_match_golden_file():
    _assert_matches(GOLDEN, golden_lines())


def test_direct_side_golden():
    _assert_matches(GOLDEN_DIRECT, direct_lines())


if __name__ == "__main__":
    for line in direct_lines() if sys.argv[1:] == ["direct"] else golden_lines():
        print(line)
