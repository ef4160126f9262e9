"""Tests of the benchmark's own checkers and graph constructions.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import alphapoly as ap  # noqa: E402
import alphapoly.corpus  # noqa: E402,F401  (the package does not import it)
import calibrate  # noqa: E402
import checks  # noqa: E402
from checks import Mix  # noqa: E402
from workloads import FORMULAS, WORKLOADS, connected_edges  # noqa: E402

SMALL = {
    "K4": checks.complete(4),
    "C5": (5, [(i, (i + 1) % 5) for i in range(5)]),
    "K2,3": checks.complete_bipartite(2, 3),
    "star6": checks.complete_bipartite(1, 5),
    "random7": (7, connected_edges(random.Random(7), 7, 0.3)),
    "random9": (9, connected_edges(random.Random(9), 9, 0.4)),
}


def program(n, edges):
    return ap.Graph(n, edges)


def to_bipoly(table):
    ldeg = max(i for i, _ in table)
    rows = [[0] * (1 + max((j for (k, j) in table if k == i), default=0))
            for i in range(ldeg + 1)]
    for (i, j), c in table.items():
        rows[i][j] = c
    return ap.BiPoly(ap.AlphaPoly(r) for r in rows)


def cofactor_det(m):
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


@pytest.mark.parametrize("n", range(0, 7))
def test_bareiss_matches_cofactor_expansion(n):
    rng = random.Random(n)
    for _ in range(20):
        # small entries with many zeros, so pivots vanish and rows swap
        m = [[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(n)] for _ in range(n)]
        assert checks.bareiss_det(m) == cofactor_det(m)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_checks_accept_program_output(name):
    n, edges = SMALL[name]
    assert checks.check_charpoly(ap.charpoly_direct(program(n, edges)),
                                 Mix.of_graph(n, edges)) == []
    removed = {0, n - 1}
    assert checks.check_charpoly(
        ap.charpoly_submatrix_multi(program(n, edges), removed),
        checks.principal(n, edges, removed)) == []


# (check, l-degree, a-degree) of a one-coefficient change each check must see
PERTURBED = [
    (checks.check_monic, lambda n: n, 0),
    (checks.check_trace, lambda n: n - 1, 1),
    (checks.check_second, lambda n: n - 2, 2),
    (checks.check_alpha_one, lambda n: 0, 0),
    (checks.check_points, lambda n: 1, 3),
]


@pytest.mark.parametrize("check,ldeg,adeg", PERTURBED)
@pytest.mark.parametrize("name", sorted(SMALL))
def test_each_check_rejects_one_perturbed_coefficient(check, ldeg, adeg, name):
    n, edges = SMALL[name]
    mix = Mix.of_graph(n, edges)
    table = checks.poly_table(ap.charpoly_direct(program(n, edges)))
    assert check(table, mix) == []
    key = (ldeg(n), adeg)
    table[key] = table.get(key, 0) + 1
    assert check(table, mix) != []
    assert checks.check_charpoly(to_bipoly(table), mix) != []


def perturbed(p, key=(0, 0)):
    """p with its coefficient of l^key[0] * a^key[1] raised by one."""
    table = checks.poly_table(p)
    table[key] = table.get(key, 0) + 1
    return to_bipoly(table)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_adjacency_check(name):
    n, edges = SMALL[name]
    mix = Mix.of_graph(n, edges)
    full = ap.charpoly_direct(program(n, edges))
    p = ap.eval_alpha(full, 0)
    assert checks.check_adjacency_charpoly(p, mix) == []
    assert checks.check_adjacency_charpoly(full, mix) == ["depends on a"]
    for ldeg in (n, n - 1, n - 2, 0):
        assert checks.check_adjacency_charpoly(perturbed(p, (ldeg, 0)), mix) != []


@pytest.mark.parametrize("identity", ["line-regular-aalpha", "qgraph-line",
                                      "classical-line-semiregular", "family-spectrum"])
def test_identity_batch_rejects_a_wrong_formula_side(identity, monkeypatch):
    wl = WORKLOADS["identity-batch"](ap, 1)
    wl.setup()
    item = next(i for i in wl.round_items(0) if i.identity == identity)
    report = wl.run(item)
    assert report.status == "pass"
    assert wl.check(item, report) == (False, [])
    # a wrong closed form behind a verdict that still says pass
    name, _ = FORMULAS[identity]
    wrong = perturbed(ap.charpoly_direct(ap.line_graph(ap.Graph(*checks.complete(4)))))
    monkeypatch.setattr(ap, name, lambda *args: wrong)
    assert wl.run(item).status == "pass"
    failed, problems = wl.check(item, report)
    assert not failed and problems
    assert all(p.startswith("formula side: ") for p in problems)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_spectrum_check(name):
    n, edges = SMALL[name]
    g, mix = program(n, edges), Mix.of_graph(n, edges)
    for alpha in (Fraction(0), Fraction(3, 10), Fraction(1, 2), Fraction(1)):
        eigs = ap.numeric_spectrum(g, alpha)
        assert checks.check_spectrum(eigs, mix, alpha) == []
        assert checks.check_spectrum([eigs[0] + 1e-6] + eigs[1:], mix, alpha) != []
        assert checks.check_spectrum(eigs[1:], mix, alpha) != []


def test_float_matrix_is_the_mixing_matrix():
    n, edges = SMALL["random9"]
    m = Mix.of_graph(n, edges).float_matrix(0.3)
    assert np.allclose(m, ap.numeric.alpha_matrix_float(program(n, edges), 0.3))


# benchmark construction -> program operation
CONSTRUCTIONS = [
    (checks.line, ap.line_graph),
    (checks.complement, ap.complement),
    (checks.subdivision, ap.subdivision),
    (checks.r_graph, ap.r_graph),
    (checks.q_graph, ap.q_graph),
    (checks.total, ap.total_graph),
]


@pytest.mark.parametrize("own,op", CONSTRUCTIONS)
@pytest.mark.parametrize("name", ["K4", "C5", "K2,3", "random7"])
def test_constructions_match_program_operations(own, op, name):
    n, edges = SMALL[name]
    assert ap.charpoly_direct(program(*own(n, edges))) == \
        ap.charpoly_direct(op(program(n, edges)))


def test_coalesce_and_pendants_match_program_operations():
    (gn, ge), (hn, he) = SMALL["random7"], SMALL["C5"]
    g, h = program(gn, ge), program(hn, he)
    assert ap.charpoly_direct(program(*checks.coalesce((gn, ge), 3, (hn, he), 2))) == \
        ap.charpoly_direct(ap.coalesce(ap.CoalescenceSpec(g, h, 3, 2)))
    assert ap.charpoly_direct(program(*checks.pendants(gn, ge, [4, 4, 4]))) == \
        ap.charpoly_direct(ap.add_pendants_at(g, 4, 3))
    assert ap.charpoly_direct(program(*checks.pendants(gn, ge, [0, 2, 5]))) == \
        ap.charpoly_direct(ap.attach_pendants(g, [0, 2, 5]))


def test_inputs_follow_the_seed_and_the_round():
    def graph(seed, r):
        return connected_edges(WORKLOADS["direct-charpoly"](ap, seed).rng(r), 20, 0.3)

    assert graph(1, 0) == graph(1, 0)
    assert graph(1, 0) != graph(2, 0)
    assert graph(1, 0) != graph(1, 1)


def test_direct_charpoly_sizes_have_their_maximum_degree():
    wl = WORKLOADS["direct-charpoly"](ap, 3)
    wl.setup()
    got = sorted(max(item.mix().diag) for item in wl.round_items(0))
    assert got == sorted(d for _, _, d in wl.SIZES)


def test_hd_median():
    assert calibrate.hd_median([5.0]) == 5.0
    many = [float(v) for v in range(101)]
    assert calibrate.hd_median(many) == pytest.approx(50.0)
    assert calibrate.hd_median(many[:-1] + [1e6]) == pytest.approx(50.0, rel=1e-6)
    symmetric = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert calibrate.hd_median(symmetric) == pytest.approx(3.5)
    # a gap in the middle: the estimate lies inside it, not at one edge
    gapped = [1.0] * 10 + [2.0] * 10
    assert 1.0 < calibrate.hd_median(gapped) < 2.0


def test_calibration_window():
    cal = calibrate.Calibrator(())
    cal.mids = [0.0, 1.0, 10.0, 20.0]
    cal.times = [1.0, 3.0, 5.0, 7.0]
    assert cal.around(1.5, 2.0) == pytest.approx(2.0)
    assert cal.around(12.0, 14.0) == pytest.approx(5.0)
    assert cal.around(9.0, 16.0) == pytest.approx(6.0)
