"""Layer spans recorded from outside the program.

`Tracer.install` replaces each traced function in every `alphapoly` module
namespace that holds it (closedforms and cli import engine functions by
name, so patching `engine` alone would miss their calls) and restores the
originals on `uninstall`.  Each call records a span with its parent, so a
layer's self time is its span minus the spans of the traced calls it made.
`BiPoly.__mul__` is counted and timed in aggregate only: it is called far
too often to keep one span per call.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, span name); every name is resolved when installing
FUNCTIONS = (
    ("engine", "charpoly_direct", "engine.charpoly_direct"),
    ("engine", "charpoly_submatrix", "engine.charpoly_submatrix"),
    ("engine", "charpoly_submatrix_multi", "engine.charpoly_submatrix"),
    ("engine", "polymatrix_det", "engine.polymatrix_det"),
    ("polynomials", "substitute_lambda", "polynomials.substitute_lambda"),
    ("polynomials", "exact_divide", "polynomials.exact_divide"),
    ("closedforms", "verify_identity", "closedforms.verify_identity"),
    ("numeric", "jacobi_eigenvalues", "numeric.jacobi_eigenvalues"),
    ("numeric", "roots_match", "numeric.roots_match"),
    ("corpus", "connected_regular_graphs", "corpus.connected_regular_graphs"),
)

# formula-path entry points, grouped by the family reported for them
FORMULA_FAMILIES = {
    "cf_family_spectrum": "spectrum",
    "cf_submatrix_spectrum": "spectrum",
    "cf_pendant_one": "pendant",
    "cf_pendant_many": "pendant",
    "cf_coalescence": "coalescence",
    "cf_complement_regular": "complement",
    "cf_line_regular": "line",
    "cf_line_semiregular": "line",
    "classical_line_semiregular": "line",
    "cf_subdivision": "subdivision",
    "cf_rgraph": "rgraph",
    "cf_qgraph": "qgraph",
    "cf_total": "total",
}
FAMILIES = ("spectrum", "pendant", "coalescence", "complement", "line",
            "subdivision", "rgraph", "qgraph", "total")

OPERATIONS = ("disjoint_union", "coalesce", "line_graph", "complement",
              "subdivision", "r_graph", "q_graph", "total_graph",
              "attach_pendants", "add_pendants_at")

DIRECT_SPANS = ("engine.charpoly_direct", "engine.charpoly_submatrix")


class Tracer:
    """Spans of one traced phase, kept in memory until written out."""

    def __init__(self, package):
        self.package = package
        self.stack = []
        self.spans = []  # (span id, parent id, name, item, start, end)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.under = defaultdict(float)  # (name, parent name) -> inclusive s
        self.item = None
        self.cache_info = None  # of charpoly_direct, read when uninstalling
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, keep_span=True):
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0, len(self.spans) if keep_span else None]
            if keep_span:
                self.spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                self.calls[name] += 1
                self.total_s[name] += took
                self.self_s[name] += took - frame[1]
                if parent is not None:
                    parent[1] += took
                self.under[(name, parent[0] if parent else None)] += took
                if keep_span:
                    self.spans[frame[2]] = (
                        frame[2], parent[2] if parent else None, name,
                        self.item, start, end)

        traced.__wrapped__ = fn
        return traced

    # -- installing --------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [m for key, m in list(sys.modules.items())
                if m is not None and (key == prefix or key.startswith(prefix + "."))]

    def _patch_everywhere(self, fn, wrapper):
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patched.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def install(self):
        pkg = self.package
        self._direct = pkg.engine.charpoly_direct
        targets = [(getattr(getattr(pkg, mod), attr), name)
                   for mod, attr, name in FUNCTIONS]
        closedforms = pkg.closedforms
        targets += [(getattr(closedforms, f), "closedforms." + f)
                    for f in FORMULA_FAMILIES]
        targets += [(getattr(pkg.operations, f), "operations." + f)
                    for f in OPERATIONS]
        for fn, name in targets:
            self._patch_everywhere(fn, self._wrap(fn, name))
        bipoly = pkg.polynomials.BiPoly
        mul = bipoly.__dict__["__mul__"]
        wrapped = self._wrap(mul, "polynomials.bipoly_mul", keep_span=False)
        for attr in ("__mul__", "__rmul__"):
            if bipoly.__dict__.get(attr) is mul:
                self._patched.append((bipoly, attr, mul))
                setattr(bipoly, attr, wrapped)

    def uninstall(self):
        if self._patched:
            self.cache_info = self._direct.cache_info()
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    # -- reporting ---------------------------------------------------------

    def under_parent(self, names, parent):
        return sum(self.under[(n, parent)] for n in names)

    def layer_metrics(self):
        """Per-layer figures of everything recorded so far."""
        out = {}

        def put(name, value, unit):
            out[name] = (value, unit)

        for name in ("engine.charpoly_direct", "engine.charpoly_submatrix",
                     "engine.polymatrix_det", "polynomials.substitute_lambda",
                     "polynomials.exact_divide", "polynomials.bipoly_mul",
                     "numeric.jacobi_eigenvalues"):
            put(name + ".calls", self.calls[name], "count")
            put(name + ".self_s", self.self_s[name], "s")
        put("engine.charpoly_direct.hits", self.cache_info.hits, "count")
        put("engine.charpoly_direct.misses", self.cache_info.misses, "count")
        put("numeric.roots_match.self_s", self.self_s["numeric.roots_match"], "s")
        verify = "closedforms.verify_identity"
        put(verify + ".calls", self.calls[verify], "count")
        formula = 0.0
        for family in FAMILIES:
            spent = self.under_parent(
                ["closedforms." + f for f, fam in FORMULA_FAMILIES.items()
                 if fam == family], verify)
            formula += spent
            put("closedforms.formula_s." + family, spent, "s")
        put("closedforms.formula_s", formula, "s")
        put("closedforms.direct_s", self.under_parent(DIRECT_SPANS, verify), "s")
        # operations call each other (total_graph builds r_graph): count
        # only the outermost operation span
        ops = {"operations." + f for f in OPERATIONS}
        put("operations.build_s",
            sum(t for (n, parent), t in self.under.items()
                if n in ops and parent not in ops), "s")
        return out


def wrapper_cost(package, calls=200_000):
    """Seconds one traced call adds, measured on a trivial function."""

    def nothing():
        return None

    tracer = Tracer(package)
    traced = tracer._wrap(nothing, "calibration", keep_span=False)
    clock = time.perf_counter
    start = clock()
    for _ in range(calls):
        nothing()
    plain = clock() - start
    start = clock()
    for _ in range(calls):
        traced()
    return max(0.0, (clock() - start - plain) / calls)
