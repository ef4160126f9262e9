"""The three workloads: inputs from a seed, the timed call, the output check.

A workload is run in rounds.  Every round has the same make-up (the same
sizes, identities and graph classes), so runs of different seeds and
lengths do the same kind of work; the seed and the round index choose the
random graphs and vertex labelings, so no round repeats another's inputs
except where a workload says so.  Each workload provides

* ``setup()``: the untimed preparation that setup_s measures;
* ``round_items(r)``: the inputs of round r (round 0 is built by setup);
* ``warmup()``: one untimed item whose input no round uses;
* ``run(item)``: the timed call into the program's public API;
* ``check(item, output)``: (failed, problems), computed after timing;

and names in ``CALIBRATION`` the calibration loops its items are timed
against (calibrate.py).
"""

from __future__ import annotations

import random
from fractions import Fraction

import calibrate
import checks
from checks import Mix


def connected_edges(rng, n, extra):
    """A random spanning tree on n vertices plus a random `extra` share of
    the other pairs.  The edge count is fixed by n and extra alone, since
    the cost of a charpoly grows with it."""
    tree = {(rng.randrange(v), v) for v in range(1, n)}
    rest = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in tree]
    return sorted(tree | set(rng.sample(rest, round(extra * len(rest)))))


class Item:
    __slots__ = ("label", "call", "fetch", "mix", "identity", "args")

    def __init__(self, label, call, fetch=None, mix=None, identity=None, args=()):
        self.label = label
        self.call = call    # the timed call, no arguments
        self.fetch = fetch  # the checked polynomial, fetched after timing
        self.mix = mix      # builds the Mix that polynomial must belong to
        self.identity = identity  # of a verify_identity call, and its
        self.args = args          # arguments


class Workload:
    name = ""

    def __init__(self, ap, seed):
        self.ap = ap
        self.seed = seed
        self.first = []

    def rng(self, tag):
        return random.Random(f"{self.name}:{self.seed}:{tag}")

    def setup(self):
        self.first = self.build(self.rng(0))

    def round_items(self, r):
        return self.first if r == 0 else self.build(self.rng(r))

    def run(self, item):
        return item.call()

    def check(self, item, output):
        return False, checks.check_charpoly(item.fetch(output), item.mix())


# ---------------------------------------------------------------------------

class DirectCharpoly(Workload):
    """charpoly_direct on random connected graphs of order 20-36.

    The packed slot width grows with the maximum degree, so each order is
    taken at more than one edge density.
    """

    name = "direct-charpoly"
    CALIBRATION = (calibrate.bigint,)
    # (order, edge share, maximum degree): five smaller sizes, eleven graphs
    # of one middle size and five larger sizes, so that item_p50_cal is the
    # median of the middle graphs, which are spread over the round, for any
    # round count.  The slot width, and with it the cost, grows with the
    # maximum degree, so each size is drawn until its maximum degree is the
    # most common one at that order and share: graphs of one size then cost
    # the same whatever the seed.
    SIZES = ((20, 0.1, 7), (20, 0.3, 11), (20, 0.5, 14), (22, 0.2, 10), (24, 0.1, 8),
             *[(25, 0.2, 10)] * 11,
             (28, 0.2, 11), (28, 0.4, 17), (32, 0.1, 9), (30, 0.3, 15), (36, 0.1, 10))

    def build(self, rng):
        items = [self._item(rng, *size) for size in self.SIZES]
        rng.shuffle(items)
        return items

    def _item(self, rng, n, extra, max_degree):
        while True:
            edges = connected_edges(rng, n, extra)
            if max(checks.degrees(n, edges)) == max_degree:
                break
        g = self.ap.Graph(n, edges)
        return Item(f"n={n};extra={extra};m={len(edges)}",
                    lambda: self.ap.charpoly_direct(g),
                    lambda p: p, lambda: Mix.of_graph(n, edges))

    def warmup(self):
        self.run(self._item(self.rng("warmup"), 16, 0.3, 9))


# ---------------------------------------------------------------------------

# regular-graph identity -> (program operation, benchmark construction)
REGULAR = {
    "line-regular-aalpha": ("line_graph", checks.line),
    "line-regular-a": ("line_graph", checks.line),
    "complement-regular": ("complement", checks.complement),
    "subdivision-aalpha": ("subdivision", checks.subdivision),
    "subdivision-a": ("subdivision", checks.subdivision),
    "rgraph-aalpha": ("r_graph", checks.r_graph),
    "rgraph-a": ("r_graph", checks.r_graph),
    "qgraph-line": ("q_graph", checks.q_graph),
    "qgraph-aalpha": ("q_graph", checks.q_graph),
    "qgraph-a": ("q_graph", checks.q_graph),
    "total-aalpha": ("total_graph", checks.total),
    "total-a": ("total_graph", checks.total),
}

# identity -> (public closed-form function, variant arguments): the formula
# side of a verdict, computed again for the check
FORMULAS = {
    "line-regular-aalpha": ("cf_line_regular", ("aalpha",)),
    "line-regular-a": ("cf_line_regular", ("a",)),
    "complement-regular": ("cf_complement_regular", ()),
    "subdivision-aalpha": ("cf_subdivision", ("aalpha",)),
    "subdivision-a": ("cf_subdivision", ("a",)),
    "rgraph-aalpha": ("cf_rgraph", ("aalpha",)),
    "rgraph-a": ("cf_rgraph", ("a",)),
    "qgraph-line": ("cf_qgraph", ("line",)),
    "qgraph-aalpha": ("cf_qgraph", ("aalpha",)),
    "qgraph-a": ("cf_qgraph", ("a",)),
    "total-aalpha": ("cf_total", ("aalpha",)),
    "total-a": ("cf_total", ("a",)),
    "line-semiregular": ("cf_line_semiregular", ()),
    "classical-line-semiregular": ("classical_line_semiregular", ()),
    "coalescence": ("cf_coalescence", ()),
    "pendant-one": ("cf_pendant_one", ()),
    "pendant-many": ("cf_pendant_many", ()),
    "family-spectrum": ("cf_family_spectrum", ()),
    "submatrix-spectrum": ("cf_submatrix_spectrum", ()),
}

# semi-regular bipartite inputs of the line identities, as (n, edges)
SEMIREGULAR = (
    ("complete_bipartite:3,4", checks.complete_bipartite(3, 4)),
    ("complete_bipartite:2,6", checks.complete_bipartite(2, 6)),
    ("subdivision of complete:4", checks.subdivision(*checks.complete(4))),
    ("subdivision of complete_bipartite:3,3",
     checks.subdivision(*checks.complete_bipartite(3, 3))),
)

# (family spec text, benchmark construction)
FAMILY = (("complete:12", checks.complete(12)),
          ("complete_bipartite:5,7", checks.complete_bipartite(5, 7)),
          ("star:14", checks.complete_bipartite(1, 13)))
# (family spec text, benchmark construction, removal side, removed vertex)
SUBMATRIX = (("complete:12", checks.complete(12), None, 0),
             ("star:14", checks.complete_bipartite(1, 13), "center", 0),
             ("star:14", checks.complete_bipartite(1, 13), "leaf", 1),
             ("complete_bipartite:5,7", checks.complete_bipartite(5, 7), "first", 0),
             ("complete_bipartite:5,7", checks.complete_bipartite(5, 7), "second", 5))


class IdentityBatch(Workload):
    """verify_identity over (identity, input) pairs whose hypotheses hold.

    Every regular-graph identity runs on the connected regular graphs of
    order 6 and 7 under a fresh random labeling per round; complete graphs
    have no other labeling, which is why caches are cleared between rounds.
    """

    name = "identity-batch"
    CALIBRATION = (calibrate.fraction, calibrate.bigint)
    ORDERS = (6, 7)

    def setup(self):
        corpus = self.ap.corpus
        self.regular = []
        for n in self.ORDERS:
            for r in range(2, n):
                for g in corpus.connected_regular_graphs(n, r):
                    if not checks.is_connected(n, g.edges) or \
                            set(checks.degrees(n, g.edges)) != {r}:
                        raise RuntimeError(f"corpus graph {g.edges} is not "
                                           f"connected {r}-regular")
                    self.regular.append((f"regular(n={n},r={r})", n, g.edges))
        super().setup()

    def _graph(self, rng, n, edges):
        """A random relabeling, as (program Graph, benchmark (n, edges))."""
        n, edges = checks.relabel(n, edges, rng.sample(range(n), n))
        return self.ap.Graph(n, edges), (n, edges)

    def _verify(self, identity, args, label, fetch, mix):
        ap = self.ap
        return Item(f"{identity} {label}",
                    lambda: ap.verify_identity(identity, *args), fetch, mix,
                    identity, args)

    def build(self, rng):
        ap = self.ap
        items = []
        for label, n, edges in self.regular:
            g, ge = self._graph(rng, n, edges)
            for identity, (op, own) in REGULAR.items():
                items.append(self._verify(
                    identity, (g,), label,
                    lambda _, g=g, op=op: ap.charpoly_direct(getattr(ap, op)(g)),
                    lambda ge=ge, own=own: Mix.of_graph(*own(*ge))))
        for label, (n, edges) in SEMIREGULAR:
            g, ge = self._graph(rng, n, edges)
            for identity in ("line-semiregular", "classical-line-semiregular"):
                items.append(self._verify(
                    identity, (g,), label,
                    lambda _, g=g: ap.charpoly_direct(ap.line_graph(g)),
                    lambda ge=ge: Mix.of_graph(*checks.line(*ge))))
        for gn, hn in ((8, 9), (8, 11), (10, 9), (10, 11)):
            g, ge = self._graph(rng, gn, connected_edges(rng, gn, 0.3))
            h, he = self._graph(rng, hn, connected_edges(rng, hn, 0.3))
            u, v = rng.randrange(gn), rng.randrange(hn)
            items.append(self._verify(
                "coalescence", (g, u, h, v), f"n={gn}@{u} . n={hn}@{v}",
                lambda _, a=(g, h, u, v): ap.charpoly_direct(
                    ap.coalesce(ap.CoalescenceSpec(*a))),
                lambda a=(ge, u, he, v): Mix.of_graph(*checks.coalesce(*a))))
        for n, s in ((12, 2), (13, 3), (14, 4)):
            g, ge = self._graph(rng, n, connected_edges(rng, n, 0.3))
            v = rng.randrange(n)
            items.append(self._verify(
                "pendant-one", (g, v, s), f"n={n};{s} pendants",
                lambda _, g=g, v=v, s=s: ap.charpoly_direct(ap.add_pendants_at(g, v, s)),
                lambda ge=ge, v=v, s=s: Mix.of_graph(*checks.pendants(*ge, [v] * s))))
        for s in (4, 5, 6):
            g, ge = self._graph(rng, 10, connected_edges(rng, 10, 0.3))
            targets = tuple(rng.sample(range(10), s))
            items.append(self._verify(
                "pendant-many", (g, targets), f"n=10;{s} targets",
                lambda _, g=g, t=targets: ap.charpoly_direct(ap.attach_pendants(g, t)),
                lambda ge=ge, t=targets: Mix.of_graph(*checks.pendants(*ge, t))))
        for text, own in FAMILY:
            spec = ap.FamilySpec.parse(text)
            items.append(self._verify(
                "family-spectrum", (spec,), text,
                lambda _, spec=spec: ap.charpoly_direct(ap.family_generate(spec)),
                lambda own=own: Mix.of_graph(*own)))
        for text, own, side, vertex in SUBMATRIX:
            spec = ap.FamilySpec.parse(text)
            args = (spec, side) if side else (spec,)
            items.append(self._verify(
                "submatrix-spectrum", args, f"{text} {side or ''}",
                lambda _, spec=spec, v=vertex: ap.charpoly_submatrix(
                    ap.family_generate(spec), v),
                lambda own=own, v=vertex: checks.principal(*own, {v})))
        return items

    def warmup(self):
        ap = self.ap
        g = ap.family_generate(ap.FamilySpec.parse("petersen"))
        for identity in ("line-regular-aalpha", "qgraph-line", "total-aalpha"):
            ap.verify_identity(identity, g)

    def check(self, item, report):
        """Both sides of a pass verdict are checked: the direct side fetched
        again, and the formula side computed again by its public function,
        so a verdict that says pass on a wrong formula is caught too."""
        if report.status != "pass":
            return False, [f"verdict {report.status}: {report.lines()}"]
        _, problems = super().check(item, report)
        return False, problems + [f"formula side: {p}" for p in self.check_formula(item)]

    def check_formula(self, item):
        name, variant = FORMULAS[item.identity]
        p = getattr(self.ap, name)(*item.args, *variant)
        if isinstance(p, self.ap.FactoredSpectrum):
            p = p.expand()
        if item.identity == "classical-line-semiregular":
            return checks.check_adjacency_charpoly(p, item.mix())
        return checks.check_charpoly(p, item.mix())


# ---------------------------------------------------------------------------

class NumericReferee(Workload):
    """roots_match on the line, subdivision and total graphs of the
    connected regular graphs of order 3-7 and degree >= 2, with each exact
    polynomial computed during setup.

    The items do not depend on the seed: roots_match judges some correct
    polynomials of order >= 14 as failures, and only fixed inputs keep that
    count fixed.  The seed sets the order of the items in each round.  The
    numeric layer keeps no cache, so a repeated item in a later round costs
    what it cost the first time.
    """

    name = "numeric-referee"
    CALIBRATION = (calibrate.rotations,)
    OPS = (("line", "line_graph", checks.line),
           ("subdivision", "subdivision", checks.subdivision),
           ("total", "total_graph", checks.total))

    def setup(self):
        ap = self.ap
        self.grid = ap.alpha_grid()
        self.items, self.graphs, self.checked = [], {}, {}
        for desc, g in ap.corpus.regular_corpus(7, min_r=2, min_n=3):
            for name, op, own in self.OPS:
                label = f"{name} of {desc}"
                h = self.graphs[label] = getattr(ap, op)(g)
                p = ap.charpoly_direct(h)
                self.items.append(Item(
                    label, lambda p=p, h=h: ap.roots_match(p, h, self.grid),
                    lambda _, p=p: p,
                    lambda n=g.n, e=g.edges, own=own: Mix.of_graph(*own(n, e))))
        super().setup()

    def build(self, rng):
        order = list(self.items)
        rng.shuffle(order)
        return order

    def warmup(self):
        ap = self.ap
        g = ap.family_generate(ap.FamilySpec.parse("petersen"))
        ap.roots_match(ap.charpoly_direct(g), g, self.grid)

    def check(self, item, report):
        """A fail verdict on a polynomial and spectrum that both check out
        is the known false failure of roots_match: a failed operation, not
        a wrong output."""
        if item.label not in self.checked:
            _, problems = super().check(item, report)
            h, mix = self.graphs[item.label], item.mix()
            for alpha in (Fraction(1, 2), self.grid[-1]):
                problems += checks.check_spectrum(
                    self.ap.numeric_spectrum(h, alpha), mix, alpha)
            self.checked[item.label] = problems
        problems = self.checked[item.label]
        if report.status == "pass":
            return False, problems
        if report.status == "fail" and not problems:
            return True, []
        return False, problems + [f"verdict {report.status}"]


WORKLOADS = {w.name: w for w in (DirectCharpoly, IdentityBatch, NumericReferee)}
