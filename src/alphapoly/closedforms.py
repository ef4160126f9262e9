"""The formula path: one operation per closed-form identity.

Every function here computes the characteristic polynomial of a transformed
graph from data of the *input* graph only (its charpoly, its principal
submatrix charpolys, its adjacency spectrum structure); none of them ever
builds the transformed graph.  `verify_identity` pits each closed form
against the direct path on the constructed graph and reports exact
polynomial equality.

The identity table `IDENTITIES`, at the end of this module, holds one
`Identity` record per theorem id: its formula side, its direct side, the
graph the numeric referee checks, its report label and its command line
`--at` parser.  `THEOREM_IDS` is the table's keys; `verify_identity` and
every identity command of the CLI dispatch through the record.

The twelve regular-graph identities (line, complement, subdivision, R, Q
and total graph, each operation in its variants) share one shape: for an
r-regular input the charpoly is a prefactor power (num/den)^e times the
product of a polynomial q(l, x) over the eigenvalues x of a source matrix,
which is exactly the resultant Res_x(P(x), q(l, x)) of the source's
charpoly P.  `REGULAR` holds one `RegularRow` per id: minimum degree,
source, and q, num, den and e, built for the input's r, n and m on each
call.  `_root_product` takes the resultant, by `substitute_lambda` for a q
linear in x and by Horner reduction of P modulo a monic quadratic q
otherwise, so the total graph needs no matrix determinant.  The `cf_*`
functions of these operations look their row up.

Negative prefactor exponents (trees in the subdivision and Q identities,
star-like inputs of the semi-regular line identity) are resolved by exact
division.  A division that fails to be exact is a falsification signal and
surfaces as a failed verdict, never as a crash.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, NamedTuple

from .engine import charpoly_direct, charpoly_submatrix, charpoly_submatrix_multi
from .graphs import (
    FamilySpec,
    Graph,
    GraphParameterError,
    family_generate,
    is_regular,
    is_semiregular_bipartite,
)
from . import operations as ops
from .polynomials import (
    ALPHA,
    ALPHA_ONE,
    AlphaPoly,
    BiPoly,
    DivisibilityError,
    FactoredSpectrum,
    LAM,
    eval_alpha,
    exact_divide,
    substitute_lambda,
)
from .verdict import FAIL, HYPOTHESIS_NOT_MET, PASS, VerdictReport


class HypothesisNotMet(ValueError):
    """The input graph does not satisfy an identity's hypothesis."""


ONE_MINUS_A = AlphaPoly((1, -1))
# a*l - 2a + 1, the coupling factor of a pendant edge
PENDANT_FACTOR = BiPoly((AlphaPoly((1, -2)), ALPHA))


def _apply_power(core: BiPoly, e: int, num, den=1) -> BiPoly:
    """core * (num/den)^e, the division exact or DivisibilityError."""
    if e < 0:
        num, den, e = den, num, -e
    if e and num != 1:
        core = core * num ** e
    if e and den != 1:
        core = exact_divide(core, den ** e)
    return core


def _quadratic(lam_coeff: AlphaPoly, const: AlphaPoly) -> BiPoly:
    """l^2 + lam_coeff*l + const."""
    return BiPoly((const, lam_coeff, ALPHA_ONE))


def _require_regular(g: Graph, min_r: int) -> int:
    r = is_regular(g)
    if r is None:
        raise HypothesisNotMet("graph is not regular")
    if r < min_r:
        raise HypothesisNotMet(f"degree {r} below required minimum {min_r}")
    return r


# ---------------------------------------------------------------------------
# family spectra
# ---------------------------------------------------------------------------

def cf_family_spectrum(spec: FamilySpec) -> FactoredSpectrum:
    """Closed-form spectra of complete, complete bipartite and star graphs.

    Conjugate eigenvalue pairs are emitted as a single quadratic so the
    result stays inside Q[a][l].
    """
    if spec.kind == "complete":
        n = spec.params[0]
        if n == 1:
            return FactoredSpectrum([(LAM, 1)])
        return FactoredSpectrum([
            (LAM - (n - 1), 1),
            (LAM - AlphaPoly((-1, n)), n - 1),
        ])
    if spec.kind == "complete_bipartite":
        a, b = spec.params
        p, q = max(a, b), min(a, b)
        factors = []
        if q >= 2:
            factors.append((LAM - p * ALPHA, q - 1))
        if p >= 2:
            factors.append((LAM - q * ALPHA, p - 1))
        factors.append((_quadratic(AlphaPoly((0, -(p + q))),
                                   AlphaPoly((-p * q, 2 * p * q))), 1))
        return FactoredSpectrum(factors)
    if spec.kind == "star":
        n = spec.params[0]
        if n < 2:
            raise GraphParameterError("star spectrum needs at least 2 vertices")
        factors = []
        if n >= 3:
            factors.append((LAM - ALPHA, n - 2))
        factors.append((_quadratic(AlphaPoly((0, -n)),
                                   AlphaPoly((-(n - 1), 2 * (n - 1)))), 1))
        return FactoredSpectrum(factors)
    raise GraphParameterError(f"no closed-form spectrum for family {spec.kind!r}")


def _bipartite_submatrix_factors(p: int, q: int) -> list:
    """Spectrum factors after removing one vertex from the p-sized part of
    K_{p,q}; remaining diagonal keeps the original degrees."""
    if p == 1:
        return [(LAM - ALPHA, q)]
    factors = []
    if q >= 2:
        factors.append((LAM - p * ALPHA, q - 1))
    if p >= 3:
        factors.append((LAM - q * ALPHA, p - 2))
    # constant term q*((a-1)^2(1-p) + a^2 p) of the rank-one coupling block
    am1sq = ONE_MINUS_A * ONE_MINUS_A
    const = q * ((1 - p) * am1sq + p * ALPHA * ALPHA)
    factors.append((_quadratic(AlphaPoly((0, -(p + q))), const), 1))
    return factors


def cf_submatrix_spectrum(spec: FamilySpec, remove_from: str | None = None) -> FactoredSpectrum:
    """Spectrum of the principal submatrix with one row/column removed.

    remove_from selects the deleted vertex: "first"/"second" part for
    complete bipartite graphs, "center"/"leaf" for stars, ignored for
    complete graphs (all removals agree by symmetry).
    """
    if spec.kind == "complete":
        n = spec.params[0]
        if n < 2:
            raise GraphParameterError("submatrix needs at least 2 vertices")
        factors = [(LAM - AlphaPoly((n - 2, 1)), 1)]
        if n >= 3:
            factors.append((LAM - AlphaPoly((-1, n)), n - 2))
        return FactoredSpectrum(factors)
    if spec.kind == "star":
        n = spec.params[0]
        if n < 2:
            raise GraphParameterError("submatrix needs at least 2 vertices")
        side = remove_from or "center"
        if side == "center":
            return FactoredSpectrum([(LAM - ALPHA, n - 1)])
        if side == "leaf":
            return FactoredSpectrum(_bipartite_submatrix_factors(n - 1, 1))
        raise GraphParameterError(f"bad removal side {side!r} for a star")
    if spec.kind == "complete_bipartite":
        a, b = spec.params
        side = remove_from or "first"
        if side == "first":
            p, q = a, b
        elif side == "second":
            p, q = b, a
        else:
            raise GraphParameterError(f"bad removal side {side!r}")
        return FactoredSpectrum(_bipartite_submatrix_factors(p, q))
    raise GraphParameterError(f"no closed-form submatrix spectrum for {spec.kind!r}")


def submatrix_removal_vertex(spec: FamilySpec, remove_from: str | None = None) -> int:
    """Vertex index matching the removal side under the family labelings;
    rejects the sides `cf_submatrix_spectrum` rejects, with its messages."""
    if spec.kind == "complete":
        return 0
    if spec.kind == "star":
        side = remove_from or "center"
        if side not in ("center", "leaf"):
            raise GraphParameterError(f"bad removal side {side!r} for a star")
        return 0 if side == "center" else 1
    if spec.kind == "complete_bipartite":
        side = remove_from or "first"
        if side not in ("first", "second"):
            raise GraphParameterError(f"bad removal side {side!r}")
        return 0 if side == "first" else spec.params[0]
    raise GraphParameterError(f"no removal convention for {spec.kind!r}")


# ---------------------------------------------------------------------------
# pendants, coalescence
# ---------------------------------------------------------------------------

def cf_pendant_one(h: Graph, v: int, s: int) -> BiPoly:
    """Charpoly after adding s pendant edges at the single vertex v."""
    if h.n < 2:
        raise HypothesisNotMet("base graph needs at least 2 vertices")
    if not (0 <= v < h.n):
        raise GraphParameterError(f"vertex {v} out of range")
    if s < 1:
        raise GraphParameterError("pendant count must be >= 1")
    lm = LAM - ALPHA
    return (lm ** s * charpoly_direct(h)
            - s * PENDANT_FACTOR * lm ** (s - 1) * charpoly_submatrix(h, v))


def cf_pendant_many(g: Graph, targets) -> BiPoly:
    """Charpoly after one pendant edge at each of the distinct targets.

    Eliminating all leaf rows of the bordered matrix at once and expanding
    the resulting rank-one diagonal corrections multilinearly gives one
    principal-submatrix polynomial per subset of targets:

        sum over T of (-(a*l - 2a + 1))^|T| (l - a)^(s-|T|) P_{G minus T}

    Iterating the one-vertex rule reproduces exactly this expansion.
    """
    targets = list(targets)
    if len(set(targets)) != len(targets):
        raise GraphParameterError("pendant targets must be distinct")
    for t in targets:
        if not (0 <= t < g.n):
            raise GraphParameterError(f"pendant target {t} out of range")
    s = len(targets)
    lm = LAM - ALPHA
    total = BiPoly.zero()
    for size in range(s + 1):
        for subset in combinations(targets, size):
            term = ((-PENDANT_FACTOR) ** size * lm ** (s - size)
                    * charpoly_submatrix_multi(g, subset))
            total = total + term
    return total


def cf_coalescence(g: Graph, u: int, h: Graph, v: int) -> BiPoly:
    """Charpoly of the vertex identification of (g, u) with (h, v)."""
    if not (0 <= u < g.n):
        raise GraphParameterError(f"vertex {u} not in first graph")
    if not (0 <= v < h.n):
        raise GraphParameterError(f"vertex {v} not in second graph")
    pg, pgu = charpoly_direct(g), charpoly_submatrix(g, u)
    ph, phv = charpoly_direct(h), charpoly_submatrix(h, v)
    return pg * phv + pgu * ph - LAM * pgu * phv


# ---------------------------------------------------------------------------
# line graphs
# ---------------------------------------------------------------------------

def _even_part(g: Graph, n1: int, n2: int) -> BiPoly:
    """Monic Q with adjacency charpoly P0(x) = x^(n1-n2) * Q(x^2).

    Exists exactly for the bipartite semi-regular inputs of the line-graph
    identity; any violation is reported as a falsification.
    """
    coeffs = eval_alpha(charpoly_direct(g), 0).constant_coeffs()
    shift = n1 - n2
    q = [Fraction(0)] * (n2 + 1)
    for j, c in enumerate(coeffs):
        if not c:
            continue
        if j < shift or (j - shift) % 2:
            raise DivisibilityError(
                "adjacency charpoly lacks the bipartite even/odd split",
                remainder=BiPoly((AlphaPoly((c,)),)))
        q[(j - shift) // 2] = c
    return BiPoly(AlphaPoly((c,)) for c in q)


def cf_line_semiregular(g: Graph, variant: str = "split") -> BiPoly:
    """Line-graph charpoly of a semi-regular bipartite graph.

    Works entirely in Q[a][l]: the square roots of the source identity never
    appear because the even part Q of the adjacency charpoly is substituted
    at the product of the two shifted variables, with all (1-a) denominator
    powers cancelling exactly.  The default "split" variant divides the
    known r1*r2 root out of Q first (that exact division doubles as a check
    that +-sqrt(r1*r2) are adjacency eigenvalues); "product" substitutes
    into the whole of Q.
    """
    params = is_semiregular_bipartite(g)
    if params is None:
        raise HypothesisNotMet("graph is not connected semi-regular bipartite")
    n1, n2, r1, r2 = params
    n, m = g.n, g.m
    beta = m - n
    q = _even_part(g, n1, n2)
    a1 = LAM - r2 * ALPHA - (r1 - 2)
    a2 = LAM - r1 * ALPHA - (r2 - 2)
    den2 = ONE_MINUS_A * ONE_MINUS_A
    pref = LAM - (r1 + r2) * ALPHA + 2
    if variant == "product":
        core = substitute_lambda(q, a1 * a2, den2, n2) * a1 ** (n1 - n2)
        return _apply_power(core, beta, pref)
    if variant == "split":
        q2 = exact_divide(q, LAM - r1 * r2)
        core = (substitute_lambda(q2, a1 * a2, den2, n2 - 1)
                * a1 ** (n1 - n2) * (LAM - (r1 + r2 - 2)))
        return _apply_power(core, beta + 1, pref)
    raise ValueError(f"unknown variant {variant!r}")


def classical_line_semiregular(g: Graph) -> BiPoly:
    """Adjacency-only (weight 0) version of the semi-regular line identity."""
    params = is_semiregular_bipartite(g)
    if params is None:
        raise HypothesisNotMet("graph is not connected semi-regular bipartite")
    n1, n2, r1, r2 = params
    beta = g.m - g.n
    q = _even_part(g, n1, n2)
    a1 = LAM - (r1 - 2)
    a2 = LAM - (r2 - 2)
    core = substitute_lambda(q, a1 * a2, 1, n2) * a1 ** (n1 - n2)
    return _apply_power(core, beta, LAM + 2)


# ---------------------------------------------------------------------------
# the regular-graph identities
# ---------------------------------------------------------------------------

class RegularRow(NamedTuple):
    """One regular-graph identity.

    For an r-regular input with n vertices and m edges, the charpoly of the
    transformed graph is (num/den)^e times the product of q(l, x) over the
    eigenvalues x of the source matrix: "M" is a*D + (1-a)*A, "(1-a)A" the
    scaled adjacency matrix, and "line" the mixing matrix of the line graph,
    whose charpoly the line row gives.  `terms(r, n, m)` builds (q, num, den, e),
    q as its coefficients in x, ascending: (c0, c1), or (c0, c1, 1) for a
    monic quadratic.
    """

    min_r: int
    source: str
    terms: Callable[[int, int, int], tuple]


def _line_pref(r: int) -> BiPoly:
    return LAM - AlphaPoly((-2, 2 * r))


def _q_den(r: int) -> BiPoly:
    """-(l - (r+1)a + 1), the x-coefficient of the Q-graph rows."""
    return (r + 1) * ALPHA - 1 - LAM


def _q_pref(r: int) -> BiPoly:
    return _quadratic(AlphaPoly((2, -(3 * r + 2))),
                      AlphaPoly((0, -2 * r, 2 * r * (r + 1))))


REGULAR: dict[str, RegularRow] = {
    "line-regular-aalpha": RegularRow(2, "M", lambda r, n, m: (
        (LAM - (r - 2), -1), _line_pref(r), 1, m - n)),
    "line-regular-a": RegularRow(2, "(1-a)A", lambda r, n, m: (
        (LAM - AlphaPoly((r - 2, r)), -1), _line_pref(r), 1, m - n)),
    # reflection at na - 1 with the rational factor (l+r+1-n)/(l+r+1-na)
    "complement-regular": RegularRow(0, "M", lambda r, n, m: (
        (LAM + AlphaPoly((1, -n)), 1),
        LAM + (r + 1 - n), LAM + AlphaPoly((r + 1, -n)), 1)),
    "subdivision-aalpha": RegularRow(1, "M", lambda r, n, m: (
        (_quadratic(-(r + 2) * ALPHA, AlphaPoly((-r, 3 * r))), -ONE_MINUS_A),
        LAM - 2 * ALPHA, 1, m - n)),
    "subdivision-a": RegularRow(1, "(1-a)A", lambda r, n, m: (
        (_quadratic(-(r + 2) * ALPHA, AlphaPoly((-r, 2 * r, r))), -ONE_MINUS_A),
        LAM - 2 * ALPHA, 1, m - n)),
    "rgraph-aalpha": RegularRow(1, "M", lambda r, n, m: (
        (_quadratic(-(r + 2) * ALPHA, AlphaPoly((-r, 3 * r))), 3 * ALPHA - 1 - LAM),
        LAM - 2 * ALPHA, 1, m - n)),
    "rgraph-a": RegularRow(1, "(1-a)A", lambda r, n, m: (
        (_quadratic(-2 * (r + 1) * ALPHA, AlphaPoly((-r, 2 * r, 3 * r))),
         3 * ALPHA - 1 - LAM),
        LAM - 2 * ALPHA, 1, m - n)),
    "qgraph-line": RegularRow(1, "line", lambda r, n, m: (
        (_quadratic(-(r + 2) * ALPHA, AlphaPoly((-2, 2 * (r + 1)))), _q_den(r)),
        1, LAM - r * ALPHA, m - n)),
    "qgraph-aalpha": RegularRow(1, "M", lambda r, n, m: (
        (_quadratic(-AlphaPoly((r - 2, r + 2)), AlphaPoly((-r, r * (r + 1)))),
         _q_den(r)),
        _q_pref(r), LAM - r * ALPHA, m - n)),
    "qgraph-a": RegularRow(1, "(1-a)A", lambda r, n, m: (
        (_quadratic(-AlphaPoly((r - 2, 2 * (r + 1))),
                    AlphaPoly((-r, r * r, r * (r + 1)))), _q_den(r)),
        _q_pref(r), LAM - r * ALPHA, m - n)),
    # block elimination of the vertex+edge matrix leaves det(M^2 + lin*M + const)
    "total-aalpha": RegularRow(2, "M", lambda r, n, m: (
        (_quadratic(AlphaPoly((2 - r, -(r + 2))), AlphaPoly((-r, r * (r + 1)))),
         (r + 3) * ALPHA - 2 * LAM + (r - 3), 1),
        LAM + 2 - 2 * (r + 1) * ALPHA, 1, m - n)),
    "total-a": RegularRow(2, "(1-a)A", lambda r, n, m: (
        (_quadratic(-AlphaPoly((r - 2, 3 * r + 2)),
                    AlphaPoly((-r, 2 * r * (r - 1), r * (2 * r + 3)))),
         3 * (r + 1) * ALPHA + (r - 3) - 2 * LAM, 1),
        LAM + 2 - 2 * (r + 1) * ALPHA, 1, m - n)),
}


def _root_product(p: BiPoly, q: tuple) -> BiPoly:
    """The product of q(l, x) over the roots x of the monic p, which is the
    resultant Res_x(p(x), q(l, x)); q as in `RegularRow`.

    A linear q = c0 + c1*x gives (-c1)^deg(p) * p(c0/(-c1)).  For a monic
    quadratic q = x^2 + lin*x + const with roots y1, y2, Res_x(p, q) equals
    Res_x(q, p) = p(y1)*p(y2), since deg q is even.  With u + v*x = p mod q,
    p(y) = u + v*y at each root, so the product is
    u^2 + u*v*(y1 + y2) + v^2*y1*y2 = u*(u - v*lin) + v^2*const.  Horner's
    rule reduces p mod q one coefficient c at a time:
    (u + v*x)*x + c = (u - v*lin)*x + (c - v*const) mod q.
    """
    if len(q) == 2:
        return substitute_lambda(p, q[0], -q[1], p.degree)
    const, lin, _ = q
    u = v = BiPoly.zero()
    for c in reversed(p.coeffs):
        u, v = c - v * const, u - v * lin
    return u * (u - v * lin) + v * v * const


def _evaluate(identity: str, g: Graph, r: int) -> BiPoly:
    """The row of `identity` at g, of degree r; no hypothesis check, so the
    Q-graph row can compose through the line row below its degree bound."""
    row = REGULAR[identity]
    q, num, den, e = row.terms(r, g.n, g.m)
    if row.source == "line":
        p = _evaluate("line-regular-aalpha", g, r)
    else:
        p = charpoly_direct(g)
        if row.source == "(1-a)A":
            p = substitute_lambda(eval_alpha(p, 0), LAM, ONE_MINUS_A, g.n)
    return _apply_power(_root_product(p, q), e, num, den)


def _regular(g: Graph, op: str, variant: str = "") -> BiPoly:
    identity = f"{op}-{variant}" if variant else op
    if identity not in REGULAR:
        # the degree hypothesis is reported before a bad variant
        _require_regular(g, REGULAR[f"{op}-a"].min_r)
        raise ValueError(f"unknown variant {variant!r}")
    return _evaluate(identity, g, _require_regular(g, REGULAR[identity].min_r))


def cf_complement_regular(g: Graph) -> BiPoly:
    """Complement charpoly of a regular graph."""
    return _regular(g, "complement-regular")


def cf_line_regular(g: Graph, variant: str = "aalpha") -> BiPoly:
    """Line-graph charpoly of a regular graph (degree at least 2)."""
    return _regular(g, "line-regular", variant)


def cf_subdivision(g: Graph, variant: str = "aalpha") -> BiPoly:
    """Subdivision charpoly of a regular graph."""
    return _regular(g, "subdivision", variant)


def cf_rgraph(g: Graph, variant: str = "aalpha") -> BiPoly:
    """Charpoly of the edge-triangle extension (one new vertex per edge,
    joined to both endpoints) of a regular graph."""
    return _regular(g, "rgraph", variant)


def cf_qgraph(g: Graph, variant: str = "line") -> BiPoly:
    """Charpoly of the subdivision-plus-line extension of a regular graph;
    variant "line" composes through the line-graph charpoly."""
    return _regular(g, "qgraph", variant)


def cf_total(g: Graph, variant: str = "aalpha") -> BiPoly:
    """Total-graph charpoly of a regular graph of degree at least 2."""
    return _regular(g, "total", variant)


# ---------------------------------------------------------------------------
# the identity table and the exact referee
# ---------------------------------------------------------------------------

class Identity(NamedTuple):
    """Everything known about one identity.

    `formula`, `direct`, `graph` and `describe` take the positional arguments
    of `verify_identity`.  `graph` builds the transformed graph whose
    spectrum the numeric referee compares with the formula polynomial; it is
    None where no graph has that polynomial as its charpoly.  `parse_at`
    turns the single-graph command line input (graph, its family spec or
    None, the `--at` text or None) into those arguments.

    The functions look formula functions and graph operations up by their
    module-level names at call time, so replacing a module attribute (as a
    tracer does) reaches every call.
    """

    formula: Callable[..., BiPoly]
    direct: Callable[..., BiPoly]
    graph: Callable[..., Graph] | None
    describe: Callable[..., str]
    parse_at: Callable[[Graph, FamilySpec | None, str | None], tuple]


def _spectrum_family(spec: FamilySpec, what: str) -> FamilySpec:
    if spec.kind not in ("complete", "complete_bipartite", "star"):
        raise HypothesisNotMet(f"no {what} closed form for {spec.kind}")
    return spec


def _family_source(spec: FamilySpec | None) -> FamilySpec:
    if spec is None:
        raise HypothesisNotMet("needs a family graph source and no --op")
    return spec


def _ints(at: str | None, default: tuple) -> tuple:
    return tuple(int(x) for x in at.split(",")) if at else default


def _at_graph(g, spec, at):
    return (g,)


def _at_coalescence(g, spec, at):
    u, v = _ints(at, (0, 0))
    return (g, u, g, v)


def _at_pendant_one(g, spec, at):
    v, s = _ints(at, (0, 1))
    return (g, v, s)


def _on_graph(formula, build, describe=Graph.describe, parse_at=_at_graph):
    """An identity whose direct side is the charpoly of the graph `build`
    makes, which the numeric referee checks too."""
    return Identity(formula, lambda *args: charpoly_direct(build(*args)),
                    build, describe, parse_at)


IDENTITIES: dict[str, Identity] = {
    "family-spectrum": _on_graph(
        lambda spec: cf_family_spectrum(_spectrum_family(spec, "spectrum")).expand(),
        family_generate, str, lambda g, spec, at: (_family_source(spec),)),
    "submatrix-spectrum": Identity(
        lambda spec, side=None: cf_submatrix_spectrum(
            _spectrum_family(spec, "submatrix"), side).expand(),
        lambda spec, side=None: charpoly_submatrix(
            family_generate(spec), submatrix_removal_vertex(spec, side)),
        None,
        lambda spec, side=None:
            f"{spec} minus vertex {submatrix_removal_vertex(spec, side)}",
        lambda g, spec, at: (_family_source(spec), at)),
    "complement-regular": _on_graph(
        lambda g: cf_complement_regular(g), lambda g: ops.complement(g)),
    "pendant-one": _on_graph(
        lambda g, v, s: cf_pendant_one(g, v, s),
        lambda g, v, s: ops.add_pendants_at(g, v, s),
        lambda g, v, s: f"{g.describe()};{s} pendants at {v}", _at_pendant_one),
    "pendant-many": _on_graph(
        lambda g, targets: cf_pendant_many(g, targets),
        lambda g, targets: ops.attach_pendants(g, targets),
        lambda g, targets:
            f"{g.describe()};pendants at {','.join(map(str, targets))}",
        lambda g, spec, at: (g, _ints(at, tuple(range(g.n))))),
    "coalescence": _on_graph(
        lambda g, u, h, v: cf_coalescence(g, u, h, v),
        lambda g, u, h, v: ops.coalesce(ops.CoalescenceSpec(g, h, u, v)),
        lambda g, u, h, v: f"({g.describe()})@{u} . ({h.describe()})@{v}",
        _at_coalescence),
    "line-regular-aalpha": _on_graph(
        lambda g: cf_line_regular(g, "aalpha"), lambda g: ops.line_graph(g)),
    "line-regular-a": _on_graph(
        lambda g: cf_line_regular(g, "a"), lambda g: ops.line_graph(g)),
    "line-semiregular": _on_graph(
        lambda g: cf_line_semiregular(g), lambda g: ops.line_graph(g)),
    "subdivision-aalpha": _on_graph(
        lambda g: cf_subdivision(g, "aalpha"), lambda g: ops.subdivision(g)),
    "subdivision-a": _on_graph(
        lambda g: cf_subdivision(g, "a"), lambda g: ops.subdivision(g)),
    "rgraph-aalpha": _on_graph(
        lambda g: cf_rgraph(g, "aalpha"), lambda g: ops.r_graph(g)),
    "rgraph-a": _on_graph(
        lambda g: cf_rgraph(g, "a"), lambda g: ops.r_graph(g)),
    "qgraph-line": _on_graph(
        lambda g: cf_qgraph(g, "line"), lambda g: ops.q_graph(g)),
    "qgraph-aalpha": _on_graph(
        lambda g: cf_qgraph(g, "aalpha"), lambda g: ops.q_graph(g)),
    "qgraph-a": _on_graph(
        lambda g: cf_qgraph(g, "a"), lambda g: ops.q_graph(g)),
    "total-aalpha": _on_graph(
        lambda g: cf_total(g, "aalpha"), lambda g: ops.total_graph(g)),
    "total-a": _on_graph(
        lambda g: cf_total(g, "a"), lambda g: ops.total_graph(g)),
    # the weight-0 polynomial is not the charpoly of any graph at other weights
    "classical-line-semiregular": Identity(
        lambda g: classical_line_semiregular(g),
        lambda g: eval_alpha(charpoly_direct(ops.line_graph(g)), 0),
        None, Graph.describe, _at_graph),
}

THEOREM_IDS = tuple(IDENTITIES)


def verify_identity(identity: str, *args, label: str | None = None) -> VerdictReport:
    """Run formula path against direct path; all failures are report data."""
    if identity not in IDENTITIES:
        raise ValueError(f"unknown identity {identity!r}")
    record = IDENTITIES[identity]
    try:
        formula, direct = record.formula(*args), record.direct(*args)
    except HypothesisNotMet as exc:
        return VerdictReport(identity, label or _describe_args(args), "exact",
                             HYPOTHESIS_NOT_MET, None, str(exc))
    except DivisibilityError as exc:
        witness = exc.remainder if exc.remainder is not None else BiPoly.one()
        return VerdictReport(identity, label or _describe_args(args), "exact",
                             FAIL, witness, f"non-exact cancellation: {exc}")
    diff = formula - direct
    label = label or record.describe(*args)
    if diff:
        return VerdictReport(identity, label, "exact", FAIL, diff, formula=formula)
    # equal to the formula side; the direct side is usually a cached object
    # already, so a batch that keeps its reports keeps no second copy
    return VerdictReport(identity, label, "exact", PASS, formula=direct)


def _describe_args(args: tuple) -> str:
    return ";".join(a.describe() if isinstance(a, Graph) else str(a) for a in args)
