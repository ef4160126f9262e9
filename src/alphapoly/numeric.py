"""Numeric third opinion: a cyclic Jacobi eigensolver plus checks that
match exact polynomials and radical eigenvalue formulas against floating
point spectra at sampled weights.

The eigensolver is deliberately the simplest correct choice for symmetric
matrices at this scale; it referees the exact paths, it is not a
performance path.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from .engine import quotient_matrix
from .graphs import Graph
from . import operations as ops
from .polynomials import BiPoly, eval_alpha
from .verdict import FAIL, HYPOTHESIS_NOT_MET, PASS, VerdictReport


class NumericError(RuntimeError):
    """Eigensolver failed to converge within the sweep cap."""


DEFAULT_TOL = 1e-8


def alpha_grid(extra_random: int = 3, seed: int = 1729) -> list[Fraction]:
    """Eleven equispaced weights 0, 1/10, ..., 1 plus a few random rationals."""
    grid = [Fraction(k, 10) for k in range(11)]
    rng = random.Random(seed)
    for _ in range(extra_random):
        den = rng.randrange(7, 97)
        grid.append(Fraction(rng.randrange(1, den), den))
    return grid


def jacobi_eigenvalues(mat: np.ndarray, tol: float = 1e-12,
                       max_sweeps: int = 100) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Converges when the off-diagonal Frobenius norm drops below tol; raises
    NumericError after max_sweeps full sweeps (never seen at this scale).
    """
    a = np.array(mat, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if n <= 1:
        return np.diagonal(a).copy()
    offmask = ~np.eye(n, dtype=bool)
    for _ in range(max_sweeps):
        off = math.sqrt(float(np.sum(a[offmask] ** 2)))
        if off < tol:
            return np.diagonal(a).copy()
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                a[p, q] = a[q, p] = 0.0
    raise NumericError(f"Jacobi sweep cap {max_sweeps} reached")


def alpha_matrix_float(g: Graph, alpha) -> np.ndarray:
    af = float(alpha)
    a = np.zeros((g.n, g.n))
    for u, w in g.edges:
        a[u, w] = a[w, u] = 1.0 - af
    for v in range(g.n):
        a[v, v] = af * g.degree(v)
    return a


def numeric_spectrum(g: Graph, alpha) -> list[float]:
    """Eigenvalues of the weight-alpha mixing matrix, non-increasing."""
    if not 0 <= float(alpha) <= 1:
        raise ValueError("weight must lie in [0, 1]")
    vals = jacobi_eigenvalues(alpha_matrix_float(g, alpha))
    return sorted((float(v) for v in vals), reverse=True)


def _power_sums(monic: list[Fraction]) -> list[float]:
    """Power sums s_0..s_n of the roots of P = sum_j monic[j]*l^j, exactly.

    With L the lcm of the denominators of the monic P, Q(y) = L^n*P(y/L)
    has integer coefficients and the roots L*x, so Newton's identities run
    in integers; s_k = S_k / L^k is the only rounding.
    """
    n = len(monic) - 1
    scale = math.lcm(*(c.denominator for c in monic))
    b = [(monic[n - i] * scale ** i).numerator for i in range(n + 1)]
    sums = [n]
    for k in range(1, n + 1):
        sums.append(-(k * b[k] + sum(b[i] * sums[k - i] for i in range(1, k))))
    return [s / scale ** k for k, s in enumerate(sums)]


def roots_match(p: BiPoly, g: Graph, alphas, tol: float = DEFAULT_TOL,
                label: str = "") -> VerdictReport:
    """Match the roots of p against the numeric spectrum at each weight.

    Two coupled checks per weight: every numeric eigenvalue nearly zeroes
    the evaluated polynomial, and the first n Newton power sums of the
    numeric eigenvalues agree with those implied by the coefficients,
    computed exactly since in floats their cancellation swamps the tolerance
    from order 14 on.
    Residuals are scaled by the coefficient magnitude at the spectral
    radius, the natural backward-error scale for Horner evaluation.
    """
    n = g.n
    if p.degree != n:
        raise ValueError("polynomial degree must equal the vertex count")
    worst = 0.0
    for alpha in alphas:
        exact = [c.constant_value() for c in eval_alpha(p, Fraction(alpha)).coeffs]
        if len(exact) <= n:
            return VerdictReport("roots-match", label or g.describe(), "numeric",
                                 FAIL, float("inf"), "vanishing leading coefficient")
        monic = [c / exact[n] for c in exact]
        coeffs = [float(c) for c in monic]
        eigs = numeric_spectrum(g, alpha)
        rho = max(1.0, max(abs(e) for e in eigs) if eigs else 1.0)
        scale = sum(abs(c) * rho ** k for k, c in enumerate(coeffs))
        for mu in eigs:
            acc = 0.0
            for c in reversed(coeffs):
                acc = acc * mu + c
            worst = max(worst, abs(acc) / scale)
        s_from_p = _power_sums(monic)
        power = [1.0] * len(eigs)
        for k in range(1, n + 1):
            power = [pw * mu for pw, mu in zip(power, eigs)]
            s_numeric = sum(power)
            dev = abs(s_numeric - s_from_p[k]) / max(1.0, n * rho ** k)
            worst = max(worst, dev)
    if worst <= tol:
        return VerdictReport("roots-match", label or g.describe(), "numeric", PASS,
                             detail=f"max deviation {worst:.3e}")
    return VerdictReport("roots-match", label or g.describe(), "numeric", FAIL,
                         worst)


def check_tg_eigenvalue_formulas(g: Graph, alphas, tol: float = DEFAULT_TOL,
                                 label: str = "") -> VerdictReport:
    """Radical eigenvalue formulas for the total graph, checked numerically.

    Both forms are exercised: one maps the weighted spectrum of g, the other
    the adjacency spectrum.  Each predicted multiset (with the m-n fixed
    eigenvalues appended) must match the actual total-graph spectrum.
    Negative radicands (possible only through rounding; the exact radicands
    are perfect squares times nonnegative factors) fall back to evaluating
    the corresponding real quadratic at the matched eigenvalues.
    """
    degs = set(g.degrees)
    if len(degs) != 1 or min(degs) < 2:
        return VerdictReport("total-eigenvalue-formulas", label or g.describe(),
                             "numeric", HYPOTHESIS_NOT_MET, None,
                             "needs a regular graph of degree > 1")
    r = degs.pop()
    n, m = g.n, g.m
    tg = ops.total_graph(g)
    worst = 0.0
    for alpha in alphas:
        af = float(alpha)
        actual = numeric_spectrum(tg, alpha)
        rho = max(1.0, max(abs(x) for x in actual))
        fixed = [2.0 * af * (r + 1) - 2.0] * (m - n)

        def pairs_from(source: list[float], which: int):
            out = []
            for mu in source:
                if which == 1:
                    ssum = 2.0 * (af + mu - 1.0) + r * (af + 1.0)
                    rad = (af - 1.0) * (af * (r + 2) ** 2 - r * r - 4.0 * (1.0 + mu))
                else:
                    ssum = -2.0 * (af - 1.0) * (mu - 1.0) + r * (3.0 * af + 1.0)
                    rad = (af - 1.0) ** 2 * (4.0 * mu + r * r + 4.0)
                out.append((ssum, rad))
            return out

        for which, source in ((1, numeric_spectrum(g, alpha)),
                              (2, numeric_spectrum(g, 0))):
            predicted = list(fixed)
            quads = []
            for ssum, rad in pairs_from(source, which):
                if rad >= -1e-9 * max(1.0, abs(rad)):
                    root = math.sqrt(max(rad, 0.0))
                    predicted.append((ssum + root) / 2.0)
                    predicted.append((ssum - root) / 2.0)
                else:
                    quads.append((ssum, (ssum * ssum - rad) / 4.0))
            remaining = list(actual)
            for ssum, prod in quads:
                # claim the two eigenvalues best annihilating the quadratic
                remaining.sort(key=lambda x: abs(x * x - ssum * x + prod))
                for x in remaining[:2]:
                    worst = max(worst, abs(x * x - ssum * x + prod) / (rho * rho))
                remaining = sorted(remaining[2:], reverse=True)
            predicted.sort(reverse=True)
            for x, y in zip(predicted, remaining):
                worst = max(worst, abs(x - y) / max(1.0, rho))
    if worst <= tol:
        return VerdictReport("total-eigenvalue-formulas", label or g.describe(),
                             "numeric", PASS, detail=f"max deviation {worst:.3e}")
    return VerdictReport("total-eigenvalue-formulas", label or g.describe(),
                         "numeric", FAIL, worst)


def check_equitable_inclusion(g: Graph, partition, alphas,
                              tol: float = DEFAULT_TOL,
                              label: str = "") -> VerdictReport:
    """Quotient-matrix eigenvalues must appear in the full spectrum.

    The quotient is similar to a symmetric matrix under scaling by the
    square roots of the class sizes, so the same Jacobi solver applies.
    """
    quo = quotient_matrix(g, partition)
    sizes = [len(c) for c in quo.classes]
    k = quo.size
    worst = 0.0
    for alpha in alphas:
        af = Fraction(alpha)
        sym = np.zeros((k, k))
        for i in range(k):
            for j in range(k):
                nij = float(quo.entries[i][j].evaluate(af))
                sym[i, j] = nij * math.sqrt(sizes[i] / sizes[j])
        if float(np.max(np.abs(sym - sym.T))) > 1e-9:
            return VerdictReport("equitable-inclusion", label or g.describe(),
                                 "numeric", FAIL, float(np.max(np.abs(sym - sym.T))),
                                 "scaled quotient is not symmetric")
        quo_eigs = jacobi_eigenvalues(sym)
        full = numeric_spectrum(g, alpha)
        rho = max(1.0, max(abs(x) for x in full))
        for q in quo_eigs:
            dev = min(abs(q - x) for x in full) / rho
            worst = max(worst, dev)
    if worst <= tol:
        return VerdictReport("equitable-inclusion", label or g.describe(),
                             "numeric", PASS, detail=f"max deviation {worst:.3e}")
    return VerdictReport("equitable-inclusion", label or g.describe(),
                         "numeric", FAIL, worst)
