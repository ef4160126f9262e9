"""The schoolbook kernels the packed integer ones replaced, kept as test
oracles: plain lists of Fractions, using no ring operation of the package;
and the matrix-quadratic evaluation of the total-graph identity.

A polynomial in `l` is a list of rows (ascending in l), each row a list of
Fractions (ascending in a), both trimmed of trailing zeros.
"""

from fractions import Fraction

from alphapoly.engine import PolyMatrix, polymatrix_det
from alphapoly.graphs import is_regular
from alphapoly.polynomials import ALPHA, LAM, AlphaPoly, BiPoly, DivisibilityError


def rows(p: BiPoly):
    return [[Fraction(c) for c in ap.coeffs] for ap in p.coeffs]


def bipoly(rs) -> BiPoly:
    return BiPoly(AlphaPoly(r) for r in rs)


def _trim(cs):
    while cs and not cs[-1]:
        cs.pop()
    return cs


def a_add(a, b):
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return _trim([x + y for x, y in zip(a, b)])


def a_neg(a):
    return [-x for x in a]


def a_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def product(p: BiPoly, q: BiPoly) -> BiPoly:
    """Schoolbook product over Fraction."""
    ps, qs = rows(p), rows(q)
    if not ps or not qs:
        return BiPoly()
    out = [[] for _ in range(len(ps) + len(qs) - 1)]
    for i, a in enumerate(ps):
        for j, b in enumerate(qs):
            out[i + j] = a_add(out[i + j], a_mul(a, b))
    return bipoly(out)


def power(p: BiPoly, k: int) -> BiPoly:
    out = BiPoly.one()
    for _ in range(k):
        out = product(out, p)
    return out


def _a_exact_div(a, b):
    """Exact division in Q[a], with the package's error messages."""
    if not a:
        return []
    rem = list(a)
    d = len(b) - 1
    lead = b[-1]
    if len(rem) - 1 < d:
        raise DivisibilityError("degree of divisor exceeds dividend")
    q = [Fraction(0)] * (len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i] / lead
        q[i - d] = c
        if c:
            for j, y in enumerate(b):
                rem[i - d + j] -= c * y
    if any(rem[:d]):
        raise DivisibilityError("non-exact division in Q[a]")
    return _trim(q)


def long_divide(p: BiPoly, q: BiPoly) -> BiPoly:
    """l-wise long division over Q[a]: the quotient, or DivisibilityError
    with the message and remainder witness the package gives."""
    ps, qs = rows(p), rows(q)
    if not ps:
        return BiPoly()
    if len(qs) == 1:
        return bipoly([_a_exact_div(a, qs[0]) for a in ps])
    dq = len(qs) - 1
    lead = qs[-1]
    rem = ps
    if len(rem) - 1 < dq:
        raise DivisibilityError("divisor degree exceeds dividend", remainder=p)
    quot = [[] for _ in range(len(rem) - dq)]
    try:
        for i in range(len(rem) - 1, dq - 1, -1):
            c = _a_exact_div(rem[i], lead)
            quot[i - dq] = c
            if c:
                for j, b in enumerate(qs):
                    rem[i - dq + j] = a_add(rem[i - dq + j], a_neg(a_mul(c, b)))
    except DivisibilityError as exc:
        raise DivisibilityError(str(exc), remainder=bipoly(rem)) from None
    tail = bipoly(rem[:dq])
    if tail:
        raise DivisibilityError("non-exact division in Q[a][l]", remainder=tail)
    return bipoly(quot)


def _a_det(m):
    """Cofactor determinant of a matrix of Q[a] rows."""
    n = len(m)
    if n == 0:
        return [Fraction(1)]
    total = []
    for j in range(n):
        minor = [[row[k] for k in range(n) if k != j] for row in m[1:]]
        term = a_mul(m[0][j], _a_det(minor))
        total = a_add(total, term if j % 2 == 0 else a_neg(term))
    return total


def lagrange_det(mat) -> BiPoly:
    """det of a PolyMatrix by its values at l = 0..d (d the sum over the rows
    of their largest l-degree, which bounds the determinant's) and Lagrange
    interpolation over Q."""
    d = sum(max(0, *(e.degree for e in row)) for row in mat.rows)
    points = range(d + 1)
    values = []
    for t in points:
        at_t = []
        for row in mat.rows:
            out_row = []
            for e in row:
                acc = []
                for k, r in enumerate(rows(e)):
                    acc = a_add(acc, [c * t ** k for c in r])
                out_row.append(acc)
            at_t.append(out_row)
        values.append(_a_det(at_t))
    result = [[] for _ in points]
    for t in points:
        basis, denom = [Fraction(1)], Fraction(1)
        for s in points:
            if s != t:
                basis = a_add([Fraction(0)] + basis, [-s * x for x in basis])
                denom *= t - s
        for k, b in enumerate(basis):
            result[k] = a_add(result[k], [b * v / denom for v in values[t]])
    return bipoly(result)


def total_matrix_quadratic(g, variant: str) -> BiPoly:
    """The total-graph identity of an r-regular g evaluated as a matrix
    determinant: det(M^2 + lin*M + const*I) * (l + 2 - 2(r+1)a)^(m-n), M the
    mixing matrix ("aalpha") or (1-a)A ("a"), the matrix built entry by
    entry and its determinant taken by the package's `polymatrix_det`, so
    this oracle uses the package's ring."""
    r, n = is_regular(g), g.n
    off = AlphaPoly((1, -1))
    if variant == "aalpha":
        diag = AlphaPoly((0, r))
        lin = (r + 3) * ALPHA - 2 * LAM + (r - 3)
        const = BiPoly((AlphaPoly((-r, r * (r + 1))), AlphaPoly((2 - r, -(r + 2))), 1))
    else:
        diag = AlphaPoly()
        lin = 3 * (r + 1) * ALPHA + (r - 3) - 2 * LAM
        const = BiPoly((AlphaPoly((-r, 2 * r * (r - 1), r * (2 * r + 3))),
                        -AlphaPoly((r - 2, 3 * r + 2)), 1))
    mat = [[diag if i == j else off if g.adjacent(i, j) else AlphaPoly()
            for j in range(n)] for i in range(n)]
    quad = [[sum((mat[i][k] * mat[k][j] for k in range(n)), AlphaPoly())
             + lin * mat[i][j] + (const if i == j else 0)
             for j in range(n)] for i in range(n)]
    return polymatrix_det(PolyMatrix(quad)) * (LAM + 2 - 2 * (r + 1) * ALPHA) ** (g.m - n)
