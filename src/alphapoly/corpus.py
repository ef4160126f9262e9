"""Graph corpora for the verification suite.

Connected regular graphs are enumerated exactly up to isomorphism at desk
scale (n <= 8): backtracking over adjacency with the first vertex's
neighbourhood fixed to 1..r, then deduplication by a spectral invariant
followed by an exact isomorphism search.  The isomorphism test is a private
enumeration aid, not a public feature of the graph layer.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .engine import _fl_coefficients, _fl_width
from .graphs import Graph


def _invariant(g: Graph):
    # the mixing-matrix charpoly, here in packed form, is a permutation
    # invariant; the width depends only on the degree multiset, so
    # isomorphic graphs are packed alike
    nbrs = [g.neighbors(v) for v in range(g.n)]
    width = _fl_width(g.degrees, nbrs)
    return (g.n, g.m, tuple(sorted(g.degrees)),
            tuple(_fl_coefficients(g.degrees, nbrs, width)))


def isomorphic(g: Graph, h: Graph) -> bool:
    """Backtracking isomorphism test for small graphs."""
    if g.n != h.n or g.m != h.m or sorted(g.degrees) != sorted(h.degrees):
        return False
    n = g.n
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    mapping = [-1] * n
    used = [False] * n

    def extend(idx: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        for w in range(n):
            if used[w] or g.degree(v) != h.degree(w):
                continue
            ok = True
            for prev in order[:idx]:
                if g.adjacent(v, prev) != h.adjacent(w, mapping[prev]):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(idx + 1):
                    return True
                used[w] = False
                mapping[v] = -1
        return False

    return extend(0)


def _labeled_regular(n: int, r: int):
    """Labeled r-regular graphs on n vertices with N(0) = {1..r}.

    Every isomorphism class has a representative of this shape, so the
    follow-up dedup still sees every class.
    """
    if r >= n or (n * r) % 2:
        return
    deg = [0] * n
    edges = [(0, j) for j in range(1, r + 1)]
    deg[0] = r
    for j in range(1, r + 1):
        deg[j] = 1

    def rec(v: int, chosen):
        if v == n:
            yield list(chosen)
            return
        need = r - deg[v]
        if need < 0:
            return
        candidates = [w for w in range(v + 1, n) if deg[w] < r]
        if need > len(candidates):
            return
        from itertools import combinations
        for pick in combinations(candidates, need):
            for w in pick:
                deg[w] += 1
            deg[v] = r
            chosen.extend((v, w) for w in pick)
            # all later vertices must still be able to reach degree r
            remaining = sum(r - deg[w] for w in range(v + 1, n))
            if remaining % 2 == 0:
                yield from rec(v + 1, chosen)
            for w in pick:
                deg[w] -= 1
            deg[v] -= need
            del chosen[len(chosen) - len(pick):]

    yield from rec(1, edges)


@lru_cache(maxsize=None)
def connected_regular_graphs(n: int, r: int) -> tuple[Graph, ...]:
    """All connected r-regular graphs on n vertices, one per isomorphism class."""
    classes: dict = {}
    for edge_list in _labeled_regular(n, r):
        g = Graph(n, edge_list)
        if not g.is_connected():
            continue
        key = _invariant(g)
        reps = classes.setdefault(key, [])
        if not any(isomorphic(g, h) for h in reps):
            reps.append(g)
    out = [g for reps in classes.values() for g in reps]
    out.sort(key=lambda g: g.edges)
    return tuple(out)


def regular_corpus(max_n: int, min_r: int = 1, min_n: int = 2):
    """(descriptor, graph) pairs over all connected regular graphs in range."""
    out = []
    for n in range(min_n, max_n + 1):
        for r in range(min_r, n):
            for i, g in enumerate(connected_regular_graphs(n, r)):
                out.append((f"regular(n={n},r={r})#{i}", g))
    return out


# ---------------------------------------------------------------------------
# random graphs for sampled identities
# ---------------------------------------------------------------------------

def random_graph(n: int, rng: random.Random, p: float = 0.5) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


def random_connected_graph(n: int, rng: random.Random, extra: float = 0.3) -> Graph:
    """Random spanning tree plus a sprinkling of extra edges."""
    edges = set()
    for v in range(1, n):
        edges.add(tuple(sorted((v, rng.randrange(v)))))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < extra:
                edges.add((i, j))
    return Graph(n, edges)
