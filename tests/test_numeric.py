"""Jacobi eigensolver and the numeric referees."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from alphapoly import (
    cf_total,
    charpoly_direct,
    check_equitable_inclusion,
    check_tg_eigenvalue_formulas,
    jacobi_eigenvalues,
    numeric_spectrum,
    roots_match,
)
from alphapoly.corpus import random_graph
from alphapoly.numeric import _power_sums, alpha_grid, alpha_matrix_float
from alphapoly.polynomials import ALPHA_L, LAM
from alphapoly import operations as ops
from conftest import fam

GRID = alpha_grid()


def test_jacobi_against_numpy():
    rng = np.random.default_rng(42)
    for n in (2, 5, 9, 16):
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        got = sorted(jacobi_eigenvalues(a), reverse=True)
        want = sorted(np.linalg.eigvalsh(a), reverse=True)
        assert max(abs(x - y) for x, y in zip(got, want)) < 1e-10


def test_spectrum_k3_half():
    got = numeric_spectrum(fam("complete", 3), Fraction(1, 2))
    assert max(abs(x - y) for x, y in zip(got, [2.0, 0.5, 0.5])) < 1e-10


def test_spectrum_weight_one_is_degrees():
    g = fam("double_broom", 3, 2, 4)
    got = numeric_spectrum(g, 1)
    want = sorted((float(d) for d in g.degrees), reverse=True)
    assert max(abs(x - y) for x, y in zip(got, want)) < 1e-12


def test_spectrum_petersen_adjacency(petersen):
    got = numeric_spectrum(petersen, 0)
    want = [3.0] + [1.0] * 5 + [-2.0] * 4
    assert max(abs(x - y) for x, y in zip(got, want)) < 1e-10


def test_spectrum_rejects_out_of_range():
    with pytest.raises(ValueError):
        numeric_spectrum(fam("complete", 3), 1.5)


def test_trace_identities_on_random_graphs():
    rng = random.Random(77)
    for _ in range(10):
        g = random_graph(rng.randrange(1, 9), rng)
        for alpha in (0, Fraction(1, 7), Fraction(2, 3), 1):
            eigs = numeric_spectrum(g, alpha)
            af = float(alpha)
            assert abs(sum(eigs) - 2 * g.m * af) < 1e-9 * max(g.n, 1)
            mat = alpha_matrix_float(g, alpha)
            assert abs(sum(e * e for e in eigs) - float(np.sum(mat * mat))) \
                < 1e-8 * max(g.n, 1) ** 2


def test_roots_match_direct_path():
    k5 = fam("complete", 5)
    assert roots_match(charpoly_direct(k5), k5, GRID).passed


def test_roots_match_detects_wrong_polynomial():
    k5 = fam("complete", 5)
    report = roots_match(LAM ** 5, k5, GRID)
    assert report.status == "fail" and report.witness > 1e-3


def test_roots_match_total_graph_formula():
    k4 = fam("complete", 4)
    assert roots_match(cf_total(k4), ops.total_graph(k4), GRID).passed


def test_tg_formulas():
    for g in (fam("complete", 3), fam("complete", 4), fam("cycle", 5),
              fam("cycle", 6), fam("petersen")):
        assert check_tg_eigenvalue_formulas(g, GRID).passed


def test_tg_formula_spot_check():
    # top eigenvalue of a triangle maps to the pair {4, 4a}: the radicand
    # collapses to (4(1-a))^2
    for af in (0.0, 0.3, 0.9):
        rad = (af - 1) * (af * 16 - 4 - 4 * 3)
        assert abs(math.sqrt(rad) - 4 * (1 - af)) < 1e-12
        pair = sorted([(2 * (af + 1) + 2 * (af + 1) + math.sqrt(rad)) / 2,
                       (2 * (af + 1) + 2 * (af + 1) - math.sqrt(rad)) / 2])
        assert abs(pair[1] - 4.0) < 1e-12 and abs(pair[0] - 4 * af) < 1e-12


def test_tg_formulas_hypothesis():
    assert check_tg_eigenvalue_formulas(fam("star", 4), GRID).status == \
        "hypothesis-not-met"


def test_equitable_inclusion():
    assert check_equitable_inclusion(fam("star", 4), [(0,), (1, 2, 3)], GRID).passed
    assert check_equitable_inclusion(fam("complete", 5), [tuple(range(5))], GRID).passed
    assert check_equitable_inclusion(
        fam("complete_bipartite", 2, 3), [(0, 1), (2, 3, 4)], GRID).passed


def test_roots_match_over_corpus():
    from alphapoly.corpus import regular_corpus
    small_grid = [0, Fraction(1, 2), 1]
    for _, g in regular_corpus(6, min_r=1):
        assert roots_match(charpoly_direct(g), g, small_grid).passed
    rng = random.Random(13)
    for _ in range(6):
        g = random_graph(rng.randrange(2, 8), rng)
        assert roots_match(charpoly_direct(g), g, small_grid).passed


def test_roots_match_vanishing_leading_coefficient():
    k3 = fam("complete", 3)
    report = roots_match(ALPHA_L * LAM ** 3 + LAM ** 2 - 1, k3, [0, 1])
    assert report.status == "fail" and report.witness == float("inf")


def test_power_sums_are_exact():
    # (l - 1/2)(l - 1/3)(l + 2): the denominators must be cleared
    roots = [Fraction(1, 2), Fraction(1, 3), Fraction(-2)]
    p = (LAM - roots[0]) * (LAM - roots[1]) * (LAM - roots[2])
    coeffs = [c.constant_value() for c in p.coeffs]
    assert _power_sums(coeffs) == [float(sum(r ** k for r in roots))
                                   for k in range(4)]


def test_alpha_grid_shape():
    grid = alpha_grid()
    assert grid[:11] == [Fraction(k, 10) for k in range(11)]
    assert len(grid) == 14
    assert all(0 < x < 1 for x in grid[11:])
