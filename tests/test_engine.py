"""Direct-path checks: trace recurrence vs Bareiss vs cofactor expansion,
principal submatrices and equitable partitions."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from alphapoly import (
    AlphaPoly,
    BiPoly,
    EquitabilityError,
    FamilySpec,
    Graph,
    LAM,
    PolyMatrix,
    alpha_matrix,
    charpoly_direct,
    charpoly_submatrix,
    charpoly_submatrix_multi,
    cf_family_spectrum,
    cf_submatrix_spectrum,
    disjoint_union,
    eval_alpha,
    exact_divide,
    lam_identity_minus,
    polymatrix_det,
    quotient_matrix,
)
from alphapoly.engine import _fl_coefficients, _fl_width
from alphapoly.polynomials import ALPHA, _pack, _unpack
from alphapoly.corpus import _invariant, random_graph
from conftest import fam
import oracles


def _det_cofactor(rows):
    """Minor expansion along the first row; independent determinant oracle."""
    n = len(rows)
    if n == 0:
        return BiPoly.one()
    if n == 1:
        return rows[0][0]
    total = BiPoly.zero()
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        term = rows[0][j] * _det_cofactor(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def _fl_dense(mat, n):
    """Packed [c_1..c_n] by dense matrix products; reference for the kernel."""
    mk = [row[:] for row in mat]
    c = -sum(mk[i][i] for i in range(n))
    out = [c]
    for k in range(2, n + 1):
        for i in range(n):
            mk[i][i] += c
        cols = list(zip(*mk))
        mk = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in mat]
        t = sum(mk[i][i] for i in range(n))
        assert t % k == 0
        c = -(t // k)
        out.append(c)
    return out


def _fl_exact_extremes(g):
    """Run the trace recurrence for g over Z[a], without packing.

    Returns the coefficients c_1..c_n and, over every entry of M_k and B_k,
    every trace and every c_k, the largest |coefficient| and l1 norm.
    """
    n = g.n
    weights = [[(0, g.degree(i)) if i == j else (1, -1) if g.adjacent(i, j)
                else None for j in range(n)] for i in range(n)]
    b = [[[int(i == j)] + [0] * n for j in range(n)] for i in range(n)]
    largest = norm = 0
    coeffs = []

    def see(p):
        nonlocal largest, norm
        largest = max(largest, max(map(abs, p)))
        norm = max(norm, sum(map(abs, p)))

    for k in range(1, n + 1):
        mk = []
        for i in range(n):
            row = []
            for col in range(n):
                acc = [0] * (n + 1)
                for j in range(n):
                    if weights[i][j]:
                        c0, c1 = weights[i][j]
                        x = b[j][col]
                        acc[0] += c0 * x[0]
                        for t in range(1, n + 1):
                            acc[t] += c0 * x[t] + c1 * x[t - 1]
                see(acc)
                row.append(acc)
            mk.append(row)
        trace = [sum(mk[i][i][t] for i in range(n)) for t in range(n + 1)]
        see(trace)
        assert all(t % k == 0 for t in trace)
        c = [-(t // k) for t in trace]
        see(c)
        coeffs.append(c)
        for i in range(n):
            mk[i][i] = [x + y for x, y in zip(mk[i][i], c)]
            see(mk[i][i])
        b = mk
    return coeffs, largest, norm


def _elementary(rs):
    """[e_0, e_1, ..., e_n], the elementary symmetric polynomials of rs."""
    e = [1]
    for r in rs:
        e = [x + r * y for x, y in zip(e + [0], [0] + e)]
    return e


@st.composite
def graphs_with_removed_vertices(draw):
    n = draw(st.integers(0, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    removed = draw(st.frozensets(st.integers(0, n - 1))) if n else frozenset()
    return Graph(n, [e for e, kept in zip(pairs, keep) if kept]), removed


@settings(max_examples=40, deadline=None)
@given(graphs_with_removed_vertices())
@example((Graph(0), frozenset()))
@example((Graph(1), frozenset()))
@example((Graph(3, [(0, 1)]), frozenset()))  # isolated vertex
@example((fam("star", 4), frozenset({0})))  # kept leaves keep no neighbour
def test_kernel_matches_dense_oracle_and_bareiss(case):
    g, removed = case
    kept = [v for v in range(g.n) if v not in removed]
    index = {v: i for i, v in enumerate(kept)}
    diag = [g.degree(v) for v in kept]
    nbrs = [[index[u] for u in g.neighbors(v) if u in index] for v in kept]
    k = len(kept)
    width = _fl_width(diag, nbrs)
    packed = _fl_coefficients(diag, nbrs, width)
    if k:
        unit = 1 << width
        mat = [[diag[i] * unit if i == j else (1 - unit) if j in nbrs[i] else 0
                for j in range(k)] for i in range(k)]
        assert packed == _fl_dense(mat, k)
    else:
        assert packed == []
    # `_fl_width`'s claim: |c_k|_1 <= e_k(r) < 2^(w-1)
    e = _elementary([d + 2 * len(nb) for d, nb in zip(diag, nbrs)])
    for j, c in enumerate(packed, 1):
        assert sum(map(abs, _unpack(c, width, k + 1))) <= e[j] < 1 << (width - 1)
    rows = lam_identity_minus(alpha_matrix(g)).rows
    minor = PolyMatrix([[rows[i][j] for j in kept] for i in kept])
    got = charpoly_submatrix_multi(g, removed)
    assert got == polymatrix_det(minor)
    if not removed:
        assert charpoly_direct(g) == got


def test_unpack_round_trips_slot_extremes():
    width = 8
    low, high = -(1 << (width - 1)), (1 << (width - 1)) - 1
    for coeffs in ([low, high, low], [high, low, high], [low] * 4, [high] * 4,
                   [0, low, 0, high]):
        assert _unpack(_pack(coeffs, width), width, len(coeffs)) == coeffs


def test_unpack_raises_when_top_slot_overflows():
    width = 8
    half = 1 << (width - 1)
    with pytest.raises(OverflowError):
        _unpack(_pack([0, 0, half], width), width, 3)
    with pytest.raises(OverflowError):
        _unpack(_pack([0, -half - 1], width), width, 2)


def test_fl_width_bounds_every_intermediate():
    for n in range(1, 13):
        for g in (fam("complete", n), fam("star", n)):
            width = _fl_width(g.degrees, [g.neighbors(v) for v in range(n)])
            coeffs, largest, norm = _fl_exact_extremes(g)
            # more than the docstring claims (it bounds the outputs only),
            # but it holds on these families
            assert norm < 1 << (width - 2)
            assert largest < 1 << (width - 1)
            p = charpoly_direct(g)
            assert [p.coefficient(n - k) for k in range(1, n + 1)] == \
                [AlphaPoly(c) for c in coeffs]


@pytest.mark.parametrize("diag", [[0], [5], [2, 2], [10, 10], [3, 1, 4, 1, 5]])
def test_fl_width_bound_attained_without_edges(diag):
    # with no edges c_k = (-1)^k e_k(d) a^k: |c_k|_1 is the bound e_k(r)
    n = len(diag)
    nbrs = [[] for _ in diag]
    width = _fl_width(diag, nbrs)
    e = _elementary(diag)
    got = [_unpack(c, width, n + 1) for c in _fl_coefficients(diag, nbrs, width)]
    assert got == [[0] * k + [(-1) ** k * e[k]] + [0] * (n - k)
                   for k in range(1, n + 1)]


@pytest.mark.parametrize("diag, short", [([6], 1), ([10, 10], 1), ([2, 2], 2)])
def test_unpack_raises_below_fl_width(diag, short):
    # some e_k(d) needs every bit of these widths
    nbrs = [[] for _ in diag]
    width = _fl_width(diag, nbrs) - short
    with pytest.raises(OverflowError):
        for c in _fl_coefficients(diag, nbrs, width):
            _unpack(c, width, len(diag) + 1)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_edgeless_graphs_need_no_width_floor(n):
    g = Graph(n)
    assert charpoly_direct(g) == LAM ** n
    assert _invariant(g) == (n, 0, (0,) * n, (0,) * n)


def test_alpha_matrix_k2():
    m = alpha_matrix(fam("complete", 2))
    assert m.entry(0, 0) == BiPoly((ALPHA,))
    assert m.entry(0, 1) == BiPoly((AlphaPoly((1, -1)),))


def test_charpoly_k2():
    assert charpoly_direct(fam("complete", 2)) == \
        LAM ** 2 - 2 * ALPHA * LAM + AlphaPoly((-1, 2))


def test_charpoly_against_cofactor_expansion():
    rng = random.Random(3)
    for _ in range(12):
        g = random_graph(rng.randrange(1, 6), rng)
        rows = [list(r) for r in lam_identity_minus(alpha_matrix(g)).rows]
        assert _det_cofactor(rows) == charpoly_direct(g)


def test_complete_graph_spectra():
    for n in (3, 4, 5):
        assert cf_family_spectrum(FamilySpec("complete", (n,))).expand() == \
            charpoly_direct(fam("complete", n))


def test_complete_bipartite_spectrum():
    assert cf_family_spectrum(FamilySpec("complete_bipartite", (2, 3))).expand() == \
        charpoly_direct(fam("complete_bipartite", 2, 3))


def test_charpoly_specialisations():
    rng = random.Random(5)
    for _ in range(10):
        g = random_graph(rng.randrange(1, 8), rng)
        p = charpoly_direct(g)
        assert p.is_monic() and p.degree == g.n
        # second coefficient is -2m*a
        assert p.coefficient(g.n - 1) == AlphaPoly((0, -2 * g.m))
        # weight 1 leaves the degree diagonal
        prod = BiPoly.one()
        for d in g.degrees:
            prod = prod * (LAM - d)
        assert eval_alpha(p, 1) == prod


def test_eval_half_weight_complete_3():
    half = Fraction(1, 2)
    got = eval_alpha(charpoly_direct(fam("complete", 3)), half)
    assert got == (LAM - 2) * (LAM - half) ** 2


def test_union_multiplicativity():
    rng = random.Random(9)
    for _ in range(8):
        g = random_graph(rng.randrange(1, 5), rng)
        h = random_graph(rng.randrange(1, 5), rng)
        assert charpoly_direct(disjoint_union(g, h)) == \
            charpoly_direct(g) * charpoly_direct(h)


def test_submatrix_examples():
    for n in (3, 4, 6):
        assert cf_submatrix_spectrum(FamilySpec("complete", (n,))).expand() == \
            charpoly_submatrix(fam("complete", n), 0)
    # star center removal leaves the leaf diagonal
    assert charpoly_submatrix(fam("star", 5), 0) == (LAM - ALPHA) ** 4
    # degrees on the diagonal stay those of the full graph
    assert charpoly_submatrix(fam("complete", 3), 0) != \
        charpoly_direct(fam("complete", 2))


def test_submatrix_multi_matches_cofactor():
    g = fam("complete_bipartite", 2, 3)
    rows = [list(r) for r in lam_identity_minus(alpha_matrix(g)).rows]
    keep = [0, 2, 4]
    minor = [[rows[i][j] for j in keep] for i in keep]
    assert _det_cofactor(minor) == charpoly_submatrix_multi(g, (1, 3))


def test_polymatrix_det_examples():
    assert polymatrix_det(PolyMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == BiPoly.one()
    d = PolyMatrix([[LAM - ALPHA, 0], [0, LAM + ALPHA]])
    expect = LAM ** 2 - BiPoly((ALPHA * ALPHA,))
    assert polymatrix_det(d) == expect


def test_bareiss_vs_trace_recurrence():
    rng = random.Random(17)
    for _ in range(10):
        g = random_graph(rng.randrange(1, 7), rng)
        mat = lam_identity_minus(alpha_matrix(g))
        assert polymatrix_det(mat) == charpoly_direct(g)


@st.composite
def integer_polymatrices(draw):
    """Square matrices of Z[a][l] entries; l_len 1 gives l-degree 0."""
    n = draw(st.integers(min_value=1, max_value=4))
    l_len = draw(st.integers(min_value=1, max_value=3))
    coeff = st.integers(min_value=-5, max_value=5)
    entry = st.lists(st.lists(coeff, max_size=3).map(AlphaPoly),
                     max_size=l_len).map(BiPoly)
    return PolyMatrix(draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                    min_size=n, max_size=n)))


@given(integer_polymatrices())
@example(PolyMatrix([[0, 0], [BiPoly([AlphaPoly([1, 2, 3])]), 1]]))  # zero row
@settings(max_examples=80, deadline=None)
def test_polymatrix_det_matches_lagrange_oracle(mat):
    assert polymatrix_det(mat) == oracles.lagrange_det(mat)


def test_quotient_matrix_star():
    g = fam("star", 4)
    q = quotient_matrix(g, [(0,), (1, 2, 3)])
    assert q.entries[0][0] == AlphaPoly((0, 3))
    assert q.entries[0][1] == AlphaPoly((3, -3))
    assert q.entries[1][0] == AlphaPoly((1, -1))
    assert q.entries[1][1] == ALPHA
    exact_divide(charpoly_direct(g), q.charpoly())


def test_quotient_matrix_complete_single_class():
    g = fam("complete", 5)
    q = quotient_matrix(g, [tuple(range(5))])
    assert q.charpoly() == LAM - 4


def test_quotient_matrix_bipartite_parts():
    g = fam("complete_bipartite", 2, 3)
    q = quotient_matrix(g, [(0, 1), (2, 3, 4)])
    exact_divide(charpoly_direct(g), q.charpoly())


def test_quotient_divisibility_random_orbits():
    # degree classes of a star with pendants are equitable
    from alphapoly.operations import attach_pendants
    g = attach_pendants(fam("star", 4), [1, 2, 3])
    part = [(0,), (1, 2, 3), (4, 5, 6)]
    q = quotient_matrix(g, part)
    exact_divide(charpoly_direct(g), q.charpoly())


def test_non_equitable_partition_reports_block():
    g = fam("path", 4)
    # degrees differ inside the first class, so its diagonal block fails
    with pytest.raises(EquitabilityError) as info:
        quotient_matrix(g, [(0, 1), (2, 3)])
    assert info.value.block == (0, 0)


def test_path_end_midpoint_partition_is_equitable():
    g = fam("path", 4)
    q = quotient_matrix(g, [(0, 3), (1, 2)])
    exact_divide(charpoly_direct(g), q.charpoly())


def test_partition_validation():
    from alphapoly import GraphParameterError
    g = fam("path", 3)
    with pytest.raises(GraphParameterError):
        quotient_matrix(g, [(0, 1)])
    with pytest.raises(GraphParameterError):
        quotient_matrix(g, [(0, 1), (1, 2)])
