"""Formula path vs direct path for every closed-form identity.

The worked examples with printed factored shapes are asserted where the
shapes are actually correct (pineapple, balanced double star); where a
printed prefactor is provably not a factor of the true polynomial, the test
documents that finding and the direct path stays the ground truth.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from alphapoly import (
    AlphaPoly,
    BiPoly,
    CoalescenceSpec,
    FactoredSpectrum,
    FamilySpec,
    Graph,
    HypothesisNotMet,
    LAM,
    cf_coalescence,
    cf_complement_regular,
    cf_family_spectrum,
    cf_line_regular,
    cf_line_semiregular,
    cf_pendant_many,
    cf_pendant_one,
    cf_qgraph,
    cf_rgraph,
    cf_subdivision,
    cf_submatrix_spectrum,
    cf_total,
    charpoly_direct,
    charpoly_submatrix,
    classical_line_semiregular,
    coalesce,
    eval_alpha,
    exact_divide,
    verify_identity,
)
from alphapoly.closedforms import _root_product, submatrix_removal_vertex
from alphapoly.graphs import GraphParameterError
from alphapoly.corpus import random_graph, regular_corpus
from alphapoly.polynomials import ALPHA, DivisibilityError
from alphapoly import operations as ops
from conftest import fam
import oracles


def factored(*pairs):
    return FactoredSpectrum(pairs).expand()


# --- family and submatrix spectra -----------------------------------------

def test_family_spectrum_k3():
    assert cf_family_spectrum(FamilySpec("complete", (3,))) == FactoredSpectrum(
        [(LAM - 2, 1), (LAM - AlphaPoly((-1, 3)), 2)])


def test_family_spectrum_star_and_bipartite():
    s = cf_family_spectrum(FamilySpec("star", (3,)))
    assert s.expand() == factored(
        (LAM - ALPHA, 1),
        (BiPoly((AlphaPoly((-2, 4)), AlphaPoly((0, -3)), AlphaPoly((1,)))), 1))
    b = cf_family_spectrum(FamilySpec("complete_bipartite", (2, 3)))
    assert b.expand() == factored(
        (LAM - 2 * ALPHA, 2), (LAM - 3 * ALPHA, 1),
        (BiPoly((AlphaPoly((-6, 12)), AlphaPoly((0, -5)), AlphaPoly((1,)))), 1))
    assert b.expand() == charpoly_direct(fam("complete_bipartite", 2, 3))


def test_submatrix_spectrum_examples():
    assert cf_submatrix_spectrum(FamilySpec("complete", (4,))).expand() == factored(
        (LAM - AlphaPoly((2, 1)), 1), (LAM - AlphaPoly((-1, 4)), 2))
    assert cf_submatrix_spectrum(FamilySpec("star", (5,)), "center").expand() == \
        (LAM - ALPHA) ** 4
    got = cf_submatrix_spectrum(FamilySpec("complete_bipartite", (2, 3)), "first")
    assert got.expand() == charpoly_submatrix(fam("complete_bipartite", 2, 3), 0)


@pytest.mark.parametrize("a,b", [(a, b) for a in range(1, 6) for b in range(1, 6)])
def test_submatrix_spectrum_bipartite_both_sides(a, b):
    spec = FamilySpec("complete_bipartite", (a, b))
    g = fam("complete_bipartite", a, b)
    for side in ("first", "second"):
        vertex = submatrix_removal_vertex(spec, side)
        assert cf_submatrix_spectrum(spec, side).expand() == \
            charpoly_submatrix(g, vertex)


@pytest.mark.parametrize("text,side,message", [
    ("star:4", "bogus", "bad removal side 'bogus' for a star"),
    ("complete_bipartite:2,3", "leaf", "bad removal side 'leaf'"),
])
def test_submatrix_removal_vertex_rejects_bad_side(text, side, message):
    # the same error, with the same message, as the closed form itself
    spec = FamilySpec.parse(text)
    for fn in (cf_submatrix_spectrum, submatrix_removal_vertex):
        with pytest.raises(GraphParameterError) as exc:
            fn(spec, side)
        assert str(exc.value) == message


def test_submatrix_star_leaf_radicand():
    # removing a leaf couples the two parts through a full-rank quadratic;
    # at weight 0 its roots must be +-sqrt(n-2)
    for n in (3, 5, 7):
        got = cf_submatrix_spectrum(FamilySpec("star", (n,)), "leaf").expand()
        direct = charpoly_submatrix(fam("star", n), 1)
        assert got == direct
        p0 = eval_alpha(got, 0)
        exact_divide(p0, LAM ** 2 - (n - 2))


def test_submatrix_quadratic_discriminants():
    # the quadratic after removing from the q-sized part of K_{p,q} is
    # l^2 - (p+q)a*l + p((a-1)^2(1-q) + a^2 q); its discriminant equals
    # a^2(p+q)^2 - 4p(a^2 + (q-1)(2a-1)): the minus-sign variant of the
    # two circulating root expressions is the consistent one
    one_minus = AlphaPoly((1, -1))
    for p, q in ((2, 3), (3, 5), (1, 4)):
        const = p * ((1 - q) * one_minus * one_minus + q * ALPHA * ALPHA)
        disc = AlphaPoly((0, 0, (p + q) ** 2)) - 4 * const
        expected = (AlphaPoly((0, 0, (p + q) ** 2))
                    - 4 * p * (ALPHA * ALPHA + (q - 1) * AlphaPoly((-1, 2))))
        assert disc == expected


def test_submatrix_star_leaf_radicand_weight_form():
    # full radicand of the leaf-removal quadratic for an n-vertex star:
    # a^2(n^2-4) - 4(n-2)(2a-1); half that weight on the last term does not
    # reproduce the submatrix polynomial
    for n in (3, 4, 6):
        got = cf_submatrix_spectrum(FamilySpec("star", (n,)), "leaf").expand()
        quad = exact_divide(got, (LAM - ALPHA) ** (n - 3))
        # quad = l^2 - na*l + c with discriminant n^2 a^2 - 4c
        c = quad.coefficient(0)
        disc = AlphaPoly((0, 0, n * n)) - 4 * c
        assert disc == (AlphaPoly((0, 0, n * n - 4))
                        + 4 * (n - 2) * AlphaPoly((1, -2)))
        assert disc != (AlphaPoly((0, 0, n * n - 4))
                        + 2 * (n - 2) * AlphaPoly((1, -2)))


# --- complement -----------------------------------------------------------

def test_complement_complete_graph():
    for n in (3, 5):
        assert cf_complement_regular(fam("complete", n)) == LAM ** n


def test_complement_self_complementary_cycle():
    c5 = fam("cycle", 5)
    assert cf_complement_regular(c5) == charpoly_direct(ops.complement(c5))


def test_complement_petersen(petersen):
    lk5 = ops.line_graph(fam("complete", 5))
    got = cf_complement_regular(lk5)
    expected = factored((LAM - 3, 1), (LAM - AlphaPoly((-2, 5)), 4),
                        (LAM - AlphaPoly((1, 2)), 5))
    assert got == expected == charpoly_direct(petersen)


def test_complement_requires_regular():
    with pytest.raises(HypothesisNotMet):
        cf_complement_regular(fam("star", 4))


# --- pendant edges ----------------------------------------------------------

def test_pendant_one_examples():
    k2 = fam("complete", 2)
    assert cf_pendant_one(k2, 0, 1) == charpoly_direct(ops.add_pendants_at(k2, 0, 1))
    p3 = fam("path", 3)
    assert cf_pendant_one(p3, 1, 1) == charpoly_direct(fam("star", 4))


def test_pendant_one_pineapple_factored_form():
    # (l-a)^(n-1) (l-ma+1)^(m-2) [(l-m+1)(l-ma+1)(l-a) - n(l-a-m+2)(a*l-2a+1)]
    for m, n in ((5, 3), (4, 2), (6, 5)):
        inner = ((LAM - (m - 1)) * (LAM - m * ALPHA + 1) * (LAM - ALPHA)
                 - n * (LAM - ALPHA - (m - 2)) * (ALPHA * LAM - 2 * ALPHA + 1))
        expected = (LAM - ALPHA) ** (n - 1) * (LAM - m * ALPHA + 1) ** (m - 2) * inner
        got = cf_pendant_one(fam("complete", m), 0, n)
        assert got == expected == charpoly_direct(fam("pineapple", m, n))


def test_pendant_many_fig_graph():
    g = fam("complete", 6)
    targets = (0, 2, 4, 5)
    assert cf_pendant_many(g, targets) == \
        charpoly_direct(ops.attach_pendants(g, targets))


def test_pendant_many_complete_all_vertices():
    # the printed factored shape for this case claims (l - na +- 1)^(n-2) as a
    # linear factor; neither sign divides the true polynomial, so only the
    # direct path is asserted and the claim is recorded as unusable
    for n in (3, 4, 5):
        g = fam("complete", n)
        got = cf_pendant_many(g, tuple(range(n)))
        assert got == charpoly_direct(ops.attach_pendants(g, tuple(range(n))))
        for candidate in (LAM - n * ALPHA + 1, LAM - n * ALPHA - 1):
            with pytest.raises(DivisibilityError):
                exact_divide(got, candidate)


def test_pendant_many_starlike():
    # star with one pendant per leaf; the direct path is the ground truth
    for n in (4, 5, 6):
        g = fam("star", n)
        targets = tuple(range(1, n))
        got = cf_pendant_many(g, targets)
        assert got == charpoly_direct(ops.attach_pendants(g, targets))


def test_pendant_many_random():
    rng = random.Random(101)
    for _ in range(60):
        g = random_graph(rng.randrange(2, 7), rng)
        targets = tuple(rng.sample(range(g.n), rng.randrange(1, g.n + 1)))
        assert cf_pendant_many(g, targets) == \
            charpoly_direct(ops.attach_pendants(g, targets))


# --- coalescence ------------------------------------------------------------

def test_coalescence_smallest():
    k2 = fam("complete", 2)
    assert cf_coalescence(k2, 0, k2, 0) == \
        charpoly_direct(coalesce(CoalescenceSpec(k2, k2, 0, 0)))


def test_coalescence_pineapple():
    s, k = fam("star", 4), fam("complete", 5)
    assert cf_coalescence(s, 0, k, 0) == charpoly_direct(fam("pineapple", 5, 3))


def test_coalescence_double_star_factored_form():
    # (l - a)^(m+n-2) times a quartic
    for m, n in ((2, 3), (3, 4)):
        g, h = fam("star", m + 2), fam("star", n + 1)
        got = cf_coalescence(g, 1, h, 0)
        assert got == charpoly_direct(fam("double_star", m, n))
        quot = exact_divide(got, (LAM - ALPHA) ** (m + n - 2))
        assert quot.degree == 4


def test_balanced_double_star_divisibility():
    for n in range(2, 6):
        got = cf_coalescence(fam("star", n + 2), 1, fam("star", n + 1), 0)
        quot = exact_divide(got, (LAM - ALPHA) ** (2 * n - 2))
        assert quot.degree == 4


def test_coalescence_is_symmetric_in_arguments():
    rng = random.Random(55)
    for _ in range(15):
        g = random_graph(rng.randrange(2, 6), rng)
        h = random_graph(rng.randrange(2, 6), rng)
        u, v = rng.randrange(g.n), rng.randrange(h.n)
        assert cf_coalescence(g, u, h, v) == cf_coalescence(h, v, g, u)


def test_coalescence_double_broom():
    for n, m in ((2, 4), (4, 3)):
        got = cf_coalescence(fam("star", n + 2), 1, fam("star", m + 2), 1)
        assert got == charpoly_direct(fam("double_broom", 3, n, m))


# --- line graphs ------------------------------------------------------------

def test_line_regular_k5_spectrum():
    expected = factored((LAM - 6, 1), (LAM - AlphaPoly((1, 5)), 4),
                        (LAM - AlphaPoly((-2, 8)), 5))
    for variant in ("aalpha", "a"):
        assert cf_line_regular(fam("complete", 5), variant) == expected


def test_line_regular_k4_octahedron():
    expected = factored((LAM - 4, 1), (LAM - 4 * ALPHA, 3),
                        (LAM - AlphaPoly((-2, 6)), 2))
    assert cf_line_regular(fam("complete", 4)) == expected
    assert cf_total(fam("complete", 3)) == expected


def test_line_of_cycle_is_cycle():
    c6 = fam("cycle", 6)
    assert cf_line_regular(c6) == charpoly_direct(c6)


def test_line_regular_disconnected_input():
    # the identity is matrix algebra, so regular but disconnected inputs work
    from alphapoly import disjoint_union
    g = disjoint_union(fam("cycle", 3), fam("cycle", 4))
    assert cf_line_regular(g) == charpoly_direct(ops.line_graph(g))


def test_line_regular_rejects():
    with pytest.raises(HypothesisNotMet):
        cf_line_regular(fam("star", 4))
    with pytest.raises(HypothesisNotMet):
        cf_line_regular(fam("complete", 2))


def test_line_semiregular_prism():
    got = cf_line_semiregular(fam("complete_bipartite", 2, 3))
    expected = ((LAM - 5 * ALPHA + 2) ** 2 * (LAM - 3) * (LAM - 3 * ALPHA) ** 2
                * (LAM - 2 * ALPHA - 1))
    assert got == expected
    assert got == charpoly_direct(ops.line_graph(fam("complete_bipartite", 2, 3)))


def test_line_semiregular_star_negative_exponent():
    got = cf_line_semiregular(fam("star", 4))
    assert got == charpoly_direct(fam("complete", 3))
    assert cf_line_semiregular(fam("star", 4), "product") == got


def test_line_semiregular_variants_agree():
    for a, b in ((1, 2), (2, 3), (3, 4), (2, 4), (4, 4)):
        g = fam("complete_bipartite", a, b)
        d = charpoly_direct(ops.line_graph(g))
        assert cf_line_semiregular(g, "split") == d
        assert cf_line_semiregular(g, "product") == d


def test_line_semiregular_subdivision_instances(petersen):
    for g in (ops.subdivision(fam("complete", 4)), ops.subdivision(petersen)):
        assert cf_line_semiregular(g) == charpoly_direct(ops.line_graph(g))


def test_classical_line_semiregular():
    for a, b in ((2, 3), (1, 3), (3, 4)):
        g = fam("complete_bipartite", a, b)
        got = classical_line_semiregular(g)
        assert got == eval_alpha(charpoly_direct(ops.line_graph(g)), 0)
        assert got == eval_alpha(cf_line_semiregular(g), 0)


def test_semiregular_even_part_has_root_pair():
    # +-sqrt(r1*r2) are adjacency eigenvalues: the weight-0 charpoly is
    # divisible by l^2 - r1*r2
    from alphapoly import is_semiregular_bipartite
    for a, b in ((2, 3), (1, 4), (3, 4)):
        g = fam("complete_bipartite", a, b)
        n1, n2, r1, r2 = is_semiregular_bipartite(g)
        exact_divide(eval_alpha(charpoly_direct(g), 0), LAM ** 2 - r1 * r2)


# --- subdivision, R, Q, total ------------------------------------------------

def test_subdivision_k3_spectrum():
    expected = factored((LAM - 2, 1), (LAM - AlphaPoly((-2, 4)), 1),
                        (LAM - AlphaPoly((1, 1)), 2), (LAM - AlphaPoly((-1, 3)), 2))
    got = cf_subdivision(fam("complete", 3))
    assert got == expected == charpoly_direct(fam("cycle", 6))


def test_subdivision_k2_negative_exponent():
    assert cf_subdivision(fam("complete", 2)) == \
        charpoly_direct(fam("path", 3))


def test_subdivision_weight_zero_k4():
    got = eval_alpha(cf_subdivision(fam("complete", 4)), 0)
    assert got == eval_alpha(charpoly_direct(ops.subdivision(fam("complete", 4))), 0)


def test_rgraph_fixed_point():
    assert cf_rgraph(fam("complete", 2)) == charpoly_direct(fam("complete", 3))


def test_qgraph_fixed_point():
    got = cf_qgraph(fam("complete", 2))
    assert got == charpoly_direct(ops.q_graph(fam("complete", 2)))
    assert got == charpoly_direct(fam("path", 3))


def test_srqt_variants_agree_on_regular_corpus():
    for desc, g in regular_corpus(5, min_r=1):
        ds = charpoly_direct(ops.subdivision(g))
        assert cf_subdivision(g, "aalpha") == ds, desc
        assert cf_subdivision(g, "a") == ds, desc
        dr = charpoly_direct(ops.r_graph(g))
        assert cf_rgraph(g, "aalpha") == dr, desc
        assert cf_rgraph(g, "a") == dr, desc
        dq = charpoly_direct(ops.q_graph(g))
        for variant in ("line", "aalpha", "a"):
            assert cf_qgraph(g, variant) == dq, desc
        if g.degree(0) >= 2:
            dt = charpoly_direct(ops.total_graph(g))
            assert cf_total(g, "aalpha") == dt, desc
            assert cf_total(g, "a") == dt, desc


def test_total_requires_degree_two():
    with pytest.raises(HypothesisNotMet):
        cf_total(fam("complete", 2))


def test_total_matches_matrix_quadratic_oracle(petersen):
    graphs = [g for _, g in regular_corpus(6, min_r=2, min_n=3)]
    for g in graphs + [fam("cycle", 9), petersen]:
        for variant in ("aalpha", "a"):
            assert cf_total(g, variant) == oracles.total_matrix_quadratic(g, variant)


small_z = st.lists(st.integers(-3, 3), max_size=3).map(AlphaPoly)
z_a_l = st.lists(small_z, max_size=3).map(BiPoly)


@given(st.lists(st.integers(-3, 3), max_size=6), z_a_l, z_a_l)
@example([2, -1, 2, 2], LAM - ALPHA, BiPoly((AlphaPoly((1, 2)), 3, 1)))
@settings(max_examples=60, deadline=None)
def test_root_product_is_the_resultant(roots, c1, c0):
    p = quad = lin = BiPoly.one()
    for x in roots:
        p = p * (LAM - x)
        quad = quad * (x * x + c1 * x + c0)
        lin = lin * (c0 + c1 * x)
    assert _root_product(p, (c0, c1, 1)) == quad
    assert _root_product(p, (c0, c1)) == lin


# identity -> (formula, variant, minimum degree)
REGULAR_IDS = {
    "line-regular-aalpha": (cf_line_regular, "aalpha", 2),
    "line-regular-a": (cf_line_regular, "a", 2),
    "complement-regular": (cf_complement_regular, None, 0),
    "subdivision-aalpha": (cf_subdivision, "aalpha", 1),
    "subdivision-a": (cf_subdivision, "a", 1),
    "rgraph-aalpha": (cf_rgraph, "aalpha", 1),
    "rgraph-a": (cf_rgraph, "a", 1),
    "qgraph-line": (cf_qgraph, "line", 1),
    "qgraph-aalpha": (cf_qgraph, "aalpha", 1),
    "qgraph-a": (cf_qgraph, "a", 1),
    "total-aalpha": (cf_total, "aalpha", 2),
    "total-a": (cf_total, "a", 2),
}


@pytest.mark.parametrize("identity", REGULAR_IDS)
def test_regular_identity_hypotheses(identity):
    formula, variant, min_r = REGULAR_IDS[identity]
    report = verify_identity(identity, fam("path", 4))
    assert (report.status, report.detail) == ("hypothesis-not-met", "graph is not regular")
    if min_r:
        low = Graph(3) if min_r == 1 else fam("complete", 2)
        report = verify_identity(identity, low)
        assert report.detail == f"degree {min_r - 1} below required minimum {min_r}"
    if variant:
        with pytest.raises(ValueError, match="^unknown variant 'bogus'$"):
            formula(fam("complete", 4), "bogus")
        with pytest.raises(HypothesisNotMet, match="^graph is not regular$"):
            formula(fam("path", 4), "bogus")
    # qgraph-line composes through the line row but not its degree bound
    passes = verify_identity(identity, fam("complete", 2)).passed
    assert passes == (min_r < 2)


# --- verify_identity harness -------------------------------------------------

def test_verify_identity_passes():
    assert verify_identity("coalescence", fam("complete", 2), 0,
                           fam("complete", 2), 0).passed
    assert verify_identity("line-regular-aalpha", fam("complete", 5)).passed
    assert verify_identity("subdivision-a", fam("petersen")).passed
    assert verify_identity("family-spectrum", FamilySpec("star", (6,))).passed


def test_verify_identity_hypothesis():
    report = verify_identity("line-regular-aalpha", fam("star", 4))
    assert report.status == "hypothesis-not-met"
    report = verify_identity("family-spectrum", FamilySpec("cycle", (5,)))
    assert report.status == "hypothesis-not-met"


def test_verify_identity_unknown():
    with pytest.raises(ValueError):
        verify_identity("nonesuch", fam("complete", 3))
