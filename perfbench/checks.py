"""Output checks that share no code with the program.

A polynomial from the program is compared with facts the benchmark derives
itself from the matrix M(a) = a*D + (1-a)*A whose characteristic polynomial
det(l*I - M(a)) it claims to be:

* it is monic of degree n;
* the l^(n-1) coefficient is -trace M(a) = -a*sum(d), i.e. -2m*a for a graph;
* the l^(n-2) coefficient is the sum of the 2x2 principal minors,
  a^2*e2(d) - m*(1-a)^2;
* at a = 1, M is diagonal, so the polynomial is prod(l - d_v);
* at two integer points (a, l) it equals det(l*I - M(a)), computed here by
  fraction-free elimination on integers.

A polynomial of the adjacency matrix alone (the weight a = 0) is checked by
the same facts taken at a = 0.

Graphs are plain (n, edges) pairs built by the functions below, so a
transformed graph is constructed independently of the program's own
`operations` module.  The program's polynomials are read through one
adapter, `poly_table`, which only unpacks coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

# two (a, l) points at which the value of the polynomial is checked
POINTS = ((3, -2), (-2, 5))
# the same for a polynomial of the adjacency matrix alone (a = 0)
ADJACENCY_POINTS = ((0, -2), (0, 5))


class Mix:
    """The mixing matrix a*diag(d) + (1-a)*A(edges) of a graph or of one of
    its principal submatrices (which keeps the degrees of the full graph)."""

    __slots__ = ("diag", "edges")

    def __init__(self, diag, edges):
        self.diag = tuple(diag)
        self.edges = tuple(edges)

    @classmethod
    def of_graph(cls, n, edges):
        return cls(degrees(n, edges), edges)

    @property
    def n(self):
        return len(self.diag)

    def integer_matrix(self, a, lam):
        """l*I - M(a) at integer a and l."""
        n = self.n
        rows = [[0] * n for _ in range(n)]
        for v, d in enumerate(self.diag):
            rows[v][v] = lam - a * d
        for u, v in self.edges:
            rows[u][v] = rows[v][u] = a - 1
        return rows

    def float_matrix(self, a):
        m = np.zeros((self.n, self.n))
        for v, d in enumerate(self.diag):
            m[v, v] = a * d
        for u, v in self.edges:
            m[u, v] = m[v, u] = 1.0 - a
        return m


# ---------------------------------------------------------------------------
# graphs as (n, sorted edge list)
# ---------------------------------------------------------------------------

def _graph(n, edges):
    return n, sorted({(min(u, v), max(u, v)) for u, v in edges})


def degrees(n, edges):
    d = [0] * n
    for u, v in edges:
        d[u] += 1
        d[v] += 1
    return d


def _edge_pairs(edges):
    """Pairs (i, j), i < j, of edges that share an endpoint."""
    return [(i, j) for i, j in combinations(range(len(edges)), 2)
            if set(edges[i]) & set(edges[j])]


def line(n, edges):
    return _graph(len(edges), _edge_pairs(edges))


def complement(n, edges):
    present = {(min(u, v), max(u, v)) for u, v in edges}
    return _graph(n, [e for e in combinations(range(n), 2) if e not in present])


def subdivision(n, edges):
    return _graph(n + len(edges),
                  [(x, n + j) for j, e in enumerate(edges) for x in e])


def r_graph(n, edges):
    return _graph(n + len(edges),
                  list(edges) + [(x, n + j) for j, e in enumerate(edges) for x in e])


def q_graph(n, edges):
    sub = subdivision(n, edges)[1]
    return _graph(n + len(edges),
                  sub + [(n + i, n + j) for i, j in _edge_pairs(edges)])


def total(n, edges):
    return _graph(n + len(edges),
                  r_graph(n, edges)[1] + [(n + i, n + j) for i, j in _edge_pairs(edges)])


def coalesce(g, u, h, v):
    """Identify vertex u of g with vertex v of h; h's vertices follow g's."""
    (gn, ge), (hn, he) = g, h

    def mh(x):
        return u if x == v else gn + (x if x < v else x - 1)

    return _graph(gn + hn - 1, list(ge) + [(mh(a), mh(b)) for a, b in he])


def pendants(n, edges, targets):
    """One new leaf at each entry of targets (repeats give several leaves)."""
    return _graph(n + len(targets),
                  list(edges) + [(t, n + i) for i, t in enumerate(targets)])


def complete(n):
    return _graph(n, combinations(range(n), 2))


def complete_bipartite(p, q):
    return _graph(p + q, [(i, p + j) for i in range(p) for j in range(q)])


def relabel(n, edges, perm):
    return _graph(n, [(perm[u], perm[v]) for u, v in edges])


def principal(n, edges, removed):
    """Mix of the principal submatrix with the vertices in `removed` gone."""
    d = degrees(n, edges)
    kept = [v for v in range(n) if v not in removed]
    index = {v: i for i, v in enumerate(kept)}
    return Mix([d[v] for v in kept],
               [(index[u], index[v]) for u, v in edges if u in index and v in index])


def is_connected(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def poly_table(p):
    """{(l-degree, a-degree): coefficient} of a program BiPoly, nonzero only."""
    return {(i, j): Fraction(c)
            for i, ap in enumerate(p.coeffs)
            for j, c in enumerate(ap.coeffs) if c}


def bareiss_det(rows):
    """Exact determinant of an integer matrix by fraction-free elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def _coeff_of_l(table, i):
    """Coefficient of l^i as an {a-degree: value} dict."""
    return {j: c for (k, j), c in table.items() if k == i}


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def check_monic(table, mix):
    n = mix.n
    if max((i for i, _ in table), default=-1) != n:
        return [f"degree in l is not {n}"]
    if _coeff_of_l(table, n) != {0: 1}:
        return ["not monic"]
    return []


def check_trace(table, mix):
    want = {1: Fraction(-sum(mix.diag))} if sum(mix.diag) else {}
    if mix.n >= 1 and _coeff_of_l(table, mix.n - 1) != want:
        return [f"l^(n-1) coefficient is not {-sum(mix.diag)}*a"]
    return []


def check_second(table, mix):
    if mix.n < 2:
        return []
    d = mix.diag
    e2 = (sum(d) ** 2 - sum(x * x for x in d)) // 2
    m = len(mix.edges)
    # a^2*e2 - m*(1-a)^2
    want = {j: Fraction(c) for j, c in enumerate((-m, 2 * m, e2 - m)) if c}
    if _coeff_of_l(table, mix.n - 2) != want:
        return [f"l^(n-2) coefficient is not a^2*{e2} - {m}*(1-a)^2"]
    return []


def check_alpha_one(table, mix):
    want = [1]
    for d in mix.diag:
        want = _poly_mul(want, [-d, 1])
    got = [0] * (mix.n + 1)
    for (i, _), c in table.items():
        if i > mix.n:
            return ["degree in l exceeds n"]
        got[i] += c
    if got != want:
        return ["value at a=1 is not prod(l - d_v)"]
    return []


def check_points(table, mix, points=POINTS):
    out = []
    for a, lam in points:
        value = sum(c * a ** j * lam ** i for (i, j), c in table.items())
        if value != bareiss_det(mix.integer_matrix(a, lam)):
            out.append(f"value at (a, l) = ({a}, {lam}) is not det(l*I - M(a))")
    return out


CHECKS = (check_monic, check_trace, check_second, check_alpha_one, check_points)


def check_charpoly(p, mix):
    """Every problem found with p as the characteristic polynomial of mix."""
    table = poly_table(p)
    return [msg for check in CHECKS for msg in check(table, mix)]


def check_adjacency_charpoly(p, mix):
    """Every problem found with p as det(l*I - A), the weight-0 member of
    the family: no a in it, monic of degree n, no l^(n-1) term, l^(n-2)
    coefficient -m, and its value at two integer l."""
    table = poly_table(p)
    if any(j for _, j in table):
        return ["depends on a"]
    out = check_monic(table, mix)
    if mix.n >= 1 and _coeff_of_l(table, mix.n - 1):
        out.append("l^(n-1) coefficient is not 0")
    m = len(mix.edges)
    if mix.n >= 2 and _coeff_of_l(table, mix.n - 2) != ({0: Fraction(-m)} if m else {}):
        out.append(f"l^(n-2) coefficient is not -{m}")
    return out + check_points(table, mix, ADJACENCY_POINTS)


def check_spectrum(eigs, mix, a, tol=1e-9):
    """Problems with eigs as the spectrum of M(a): compared with LAPACK's
    eigvalsh of a matrix built here, and with the trace 2m*a."""
    eigs = sorted(float(x) for x in eigs)
    ref = np.linalg.eigvalsh(mix.float_matrix(float(a)))
    scale = max(1.0, float(np.max(np.abs(ref)))) if len(ref) else 1.0
    out = []
    if len(eigs) != len(ref):
        return [f"{len(eigs)} eigenvalues for order {len(ref)}"]
    dev = max((abs(x - y) for x, y in zip(eigs, ref)), default=0.0)
    if dev > tol * scale:
        out.append(f"eigenvalues differ from eigvalsh by {dev:.3e}")
    trace = float(a) * sum(mix.diag)
    if abs(sum(eigs) - trace) > tol * scale * max(1, len(eigs)):
        out.append(f"eigenvalues sum to {sum(eigs)!r}, not {trace!r}")
    return out
