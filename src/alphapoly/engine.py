"""The direct path: symbolic mixing matrices and exact characteristic
polynomials.

`charpoly_direct` runs the Faddeev-LeVerrier trace recurrence over Z[a],
whose only divisions, by the step index, are exact.  Each Z[a] entry is
packed into one big integer (evaluation at a = 2^w, a ring homomorphism, so
the integers are the exact images; w is sized from the output coefficients
alone, see `_fl_width`).  As M = diag(d)*2^w + (1 - 2^w)*A, row i of M X is
the shifted neighbour-row update ((d_i*X[i] - S_i) << w) + S_i, S_i the sum
of the rows of i's neighbours: a step costs O(n*(n+m)) big-integer
additions and shifts, not n^3 big-integer products.  `corpus` uses the
same kernel for its isomorphism invariant.

`polymatrix_det` is the one determinant of a polynomial matrix: symbolic
fraction-free Bareiss elimination over Q[a][l].  It computes the quotient
charpolys of equitable partitions, and the test suite uses it as the
independent second algorithm against the trace recurrence.  The unpacking
helper `_unpack` is that of `polynomials`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from math import prod
from typing import Collection, Iterable, Sequence

from .graphs import Graph, GraphParameterError
from .polynomials import (
    ALPHA_ONE,
    ALPHA_ZERO,
    AlphaPoly,
    BiPoly,
    _unpack,
    exact_divide,
)


# ---------------------------------------------------------------------------
# packed trace recurrence
# ---------------------------------------------------------------------------

def _fl_coefficients(diag: Sequence[int], nbrs: Sequence[Iterable[int]],
                     width: int) -> list[int]:
    """Packed [c_1..c_n], P = l^n + c_1 l^(n-1) + ..., of M = a*diag(diag) +
    (1-a)*A, A given by the neighbour lists nbrs, packed at a = 2^width.

    B_0 = I, M_k = M B_(k-1), c_k = -tr(M_k)/k, B_k = M_k + c_k I, each row
    of M X by the shifted neighbour-row update.  All are polynomials in M,
    hence symmetric: row i is computed from column i on.
    """
    n = len(diag)
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    out = []
    for k in range(1, n + 1):
        new = []
        for i, (d, nb) in enumerate(zip(diag, nbrs)):
            sums = map(sum, zip(*[mk[j][i:] for j in nb])) if nb else repeat(0)
            tail = [((d * x - s) << width) + s for x, s in zip(mk[i][i:], sums)]
            new.append([r[i] for r in new] + tail)
        mk = new
        t = sum(mk[i][i] for i in range(n))
        if t % k:
            raise ArithmeticError("trace recurrence division not exact")
        c = -(t // k)
        out.append(c)
        for i in range(n):
            mk[i][i] += c
    return out


def _fl_width(diag: Sequence[int], nbrs: Sequence[Collection[int]]) -> int:
    """Slot width for `_fl_coefficients`: each output c_k fits n+1 balanced
    slots, so `_unpack` recovers it.

    Proof, |.| the l1 norm of the coefficients in `a`: row i of M has norm at
    most r_i = |d_i| + 2*len(nbrs_i).  c_k is (-1)^k times the sum of the
    principal k-minors of M, and a minor is at most the permanent of the
    entrywise norms, at most the product of its row sums.  So
    |c_k| <= e_k(r) < prod(1 + r_i) < 2^(w-1), and deg_a c_k <= k <= n.
    Only the outputs need the bound: evaluation at a = 2^w is a ring
    homomorphism Z[a] -> Z and c_k is in Z[a], so the recurrence's integers
    are the exact images, however wide they grow, and its division by k
    stays exact.
    """
    bound = prod(1 + abs(d) + 2 * len(nb) for d, nb in zip(diag, nbrs))
    return bound.bit_length() + 1


def _charpoly_packed(diag: Sequence[int], nbrs: Sequence[Collection[int]]) -> BiPoly:
    """Charpoly of a*diag(diag) + (1-a)*A, A given by the neighbour lists."""
    n = len(diag)
    width = _fl_width(diag, nbrs)
    packed = _fl_coefficients(diag, nbrs, width)
    return BiPoly([AlphaPoly(_unpack(c, width, n + 1)) for c in reversed(packed)]
                  + [ALPHA_ONE])


# ---------------------------------------------------------------------------
# mixing matrix and characteristic polynomials
# ---------------------------------------------------------------------------

class PolyMatrix:
    """Square matrix with BiPoly entries."""

    __slots__ = ("size", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(_coerce(e) for e in row) for row in rows)
        size = len(rows)
        if any(len(row) != size for row in rows):
            raise ValueError("matrix must be square")
        self.size = size
        self.rows = rows

    def entry(self, i: int, j: int) -> BiPoly:
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self):
        return f"PolyMatrix(size={self.size})"


def _coerce(e) -> BiPoly:
    if isinstance(e, BiPoly):
        return e
    if isinstance(e, AlphaPoly):
        return BiPoly((e,))
    return BiPoly((AlphaPoly((e,)),))


def alpha_matrix(g: Graph) -> PolyMatrix:
    """a*D(g) + (1-a)*A(g) as a symbolic matrix."""
    one_minus_a = AlphaPoly((1, -1))
    rows = []
    for i in range(g.n):
        row = []
        for j in range(g.n):
            if i == j:
                row.append(BiPoly((AlphaPoly((0, g.degree(i))),)))
            elif g.adjacent(i, j):
                row.append(BiPoly((one_minus_a,)))
            else:
                row.append(BiPoly.zero())
        rows.append(row)
    return PolyMatrix(rows)


@lru_cache(maxsize=None)
def charpoly_direct(g: Graph) -> BiPoly:
    """det(l*I - (a*D + (1-a)*A)) by the trace recurrence; monic, degree n."""
    return _charpoly_packed(g.degrees, [g.neighbors(v) for v in range(g.n)])


@lru_cache(maxsize=None)
def _charpoly_principal(g: Graph, removed: frozenset) -> BiPoly:
    """Charpoly of the principal submatrix with `removed` rows/columns gone.

    Diagonal entries keep the degrees of the full graph; this is a submatrix
    of the mixing matrix, not the matrix of an induced subgraph.
    """
    kept = [v for v in range(g.n) if v not in removed]
    index = {v: i for i, v in enumerate(kept)}
    return _charpoly_packed(
        [g.degree(v) for v in kept],
        [[index[u] for u in g.neighbors(v) if u in index] for v in kept],
    )


def charpoly_submatrix(g: Graph, u: int) -> BiPoly:
    """Charpoly after deleting row/column u; monic, degree n-1."""
    if not (0 <= u < g.n):
        raise GraphParameterError(f"vertex {u} out of range")
    return _charpoly_principal(g, frozenset((u,)))


def charpoly_submatrix_multi(g: Graph, vertices) -> BiPoly:
    """Charpoly after deleting all rows/columns in `vertices`."""
    removed = frozenset(vertices)
    for u in removed:
        if not (0 <= u < g.n):
            raise GraphParameterError(f"vertex {u} out of range")
    return _charpoly_principal(g, removed)


# ---------------------------------------------------------------------------
# determinants of polynomial matrices
# ---------------------------------------------------------------------------

def polymatrix_det(mat: PolyMatrix) -> BiPoly:
    """Exact determinant over Q[a][l] by fraction-free Bareiss elimination:
    each step's division by the previous pivot is exact (Sylvester's
    identity), so `exact_divide` keeps every entry a polynomial."""
    n = mat.size
    if n == 0:
        return BiPoly.one()
    m = [list(row) for row in mat.rows]
    sign = 1
    prev = BiPoly.one()
    for k in range(n - 1):
        p = k
        while p < n and not m[p][k]:
            p += 1
        if p == n:
            return BiPoly.zero()
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        piv = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = exact_divide(piv * m[i][j] - m[i][k] * m[k][j], prev)
            m[i][k] = BiPoly.zero()
        prev = piv
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def lam_identity_minus(mat: PolyMatrix) -> PolyMatrix:
    """l*I - mat."""
    lam = BiPoly((ALPHA_ZERO, ALPHA_ONE))
    n = mat.size
    return PolyMatrix([[lam - mat.rows[i][j] if i == j else -mat.rows[i][j]
                        for j in range(n)] for i in range(n)])


# ---------------------------------------------------------------------------
# equitable partitions
# ---------------------------------------------------------------------------

class EquitabilityError(ValueError):
    """Partition is not equitable; carries the offending block pair."""

    def __init__(self, message: str, block: tuple[int, int]):
        super().__init__(message)
        self.block = block


class QuotientMatrix:
    """Constant block row sums of the mixing matrix over a vertex partition."""

    __slots__ = ("size", "entries", "classes")

    def __init__(self, entries, classes):
        self.entries = tuple(tuple(e for e in row) for row in entries)
        self.size = len(self.entries)
        self.classes = tuple(tuple(c) for c in classes)

    def charpoly(self) -> BiPoly:
        mat = PolyMatrix([[BiPoly((e,)) for e in row] for row in self.entries])
        return polymatrix_det(lam_identity_minus(mat))

    def __repr__(self):
        return f"QuotientMatrix(size={self.size})"


def quotient_matrix(g: Graph, partition) -> QuotientMatrix:
    """Quotient of the mixing matrix; raises EquitabilityError when invalid.

    Block row sums are checked symbolically as polynomials in `a`, which
    amounts to requiring constant neighbour counts into every class and
    constant degrees within each class.
    """
    classes = [tuple(c) for c in partition]
    seen = [v for c in classes for v in c]
    if sorted(seen) != list(range(g.n)):
        raise GraphParameterError("partition must cover every vertex exactly once")
    if any(not c for c in classes):
        raise GraphParameterError("partition classes must be nonempty")
    k = len(classes)
    entries = []
    for i in range(k):
        row = []
        for j in range(k):
            target = set(classes[j])
            sums = set()
            for v in classes[i]:
                count = len(g.neighbors(v) & target)
                # row sum of the mixing matrix over columns in class j
                value = AlphaPoly((count, g.degree(v) - count)) if (i == j) \
                    else AlphaPoly((count, -count))
                sums.add(value)
            if len(sums) != 1:
                raise EquitabilityError(
                    f"block ({i},{j}) has non-constant row sums", (i, j))
            row.append(sums.pop())
        entries.append(row)
    return QuotientMatrix(entries, classes)

