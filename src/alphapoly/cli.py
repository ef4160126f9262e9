"""Batch command line interface.

Subcommands:

* graph     build a graph (family spec, edge-list file or stdin), apply an
            optional op pipeline, print the edge-list text
* op        same as graph but requires at least one --op
* charpoly  print the canonical polynomial text (direct path by default,
            or a closed form via --method formula:<identity>)
* spectrum  print the numeric eigenvalues at --alpha, non-increasing
* verify    run one identity check; exit 0 pass, 1 fail,
            2 hypothesis-not-met
* suite     run the bundled verification corpus and print a summary table

Exit codes follow sysexits where sensible: 64 usage, 65 malformed edge
list, 66 unreadable input file.

Binary pipeline ops (union, coalesce) pair the current graph with an
independent copy of itself; identities over two distinct graphs are
reachable through the library or the test suite.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import corpus
from . import operations as ops
from .closedforms import IDENTITIES, HypothesisNotMet, verify_identity
from .engine import charpoly_direct
from .graphs import (
    EdgeListError,
    FamilySpec,
    Graph,
    GraphParameterError,
    family_generate,
    format_edge_list,
    parse_edge_list,
)
from .numeric import DEFAULT_TOL, alpha_grid, numeric_spectrum, roots_match
from .polynomials import format_bipoly
from .verdict import FAIL, HYPOTHESIS_NOT_MET, PASS

EX_USAGE = 64
EX_DATAERR = 65
EX_NOINPUT = 66

_FAMILY_NAMES = ("path", "cycle", "complete", "star", "complete_bipartite",
                 "pineapple", "double_star", "double_broom", "petersen")


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message, EX_USAGE)


def _load_graph(source: str) -> tuple[Graph, FamilySpec | None]:
    name = source.split(":", 1)[0].strip().lower()
    if name in _FAMILY_NAMES:
        try:
            spec = FamilySpec.parse(source)
            return family_generate(spec), spec
        except (GraphParameterError, ValueError) as exc:
            raise CliError(f"bad family spec {source!r}: {exc}", EX_USAGE) from None
    if source == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read {source!r}: {exc}", EX_NOINPUT) from None
    try:
        return parse_edge_list(text), None
    except EdgeListError as exc:
        raise CliError(f"malformed edge list: {exc}", EX_DATAERR) from None


def _apply_ops(g: Graph, pipeline: list[str]) -> Graph:
    for item in pipeline:
        name, _, arg = item.partition(":")
        name = name.strip().lower()
        try:
            if name == "union":
                g = ops.disjoint_union(g, g)
            elif name == "coalesce":
                u, v = (int(x) for x in arg.split(","))
                g = ops.coalesce(ops.CoalescenceSpec(g, g, u, v))
            elif name == "line":
                g = ops.line_graph(g)
            elif name == "complement":
                g = ops.complement(g)
            elif name == "subdivision":
                g = ops.subdivision(g)
            elif name == "rgraph":
                g = ops.r_graph(g)
            elif name == "qgraph":
                g = ops.q_graph(g)
            elif name == "total":
                g = ops.total_graph(g)
            elif name == "pendants":
                targets = [int(x) for x in arg.split(",")]
                g = ops.attach_pendants(g, targets)
            else:
                raise CliError(f"unknown op {name!r}", EX_USAGE)
        except (GraphParameterError, ValueError) as exc:
            raise CliError(f"op {item!r}: {exc}", EX_USAGE) from None
    return g


def _parse_alpha(text: str) -> Fraction:
    try:
        a = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"bad weight {text!r}", EX_USAGE) from None
    if not 0 <= a <= 1:
        raise CliError("weight must lie in [0, 1]", EX_USAGE)
    return a


def _emit(out, text: str):
    out.write(text)
    if not text.endswith("\n"):
        out.write("\n")


def _identity(identity: str, args, g: Graph, spec: FamilySpec | None):
    """The table record of `identity` and its arguments for the CLI graph;
    `spec` describes `g` only when no --op changed it."""
    record = IDENTITIES.get(identity)
    if record is None:
        raise CliError(f"unknown theorem id {identity!r}", EX_USAGE)
    return record, _usage_errors(record.parse_at, g, None if args.op else spec,
                                 args.at)


def _usage_errors(fn, *args, **kwargs):
    """fn(*args, **kwargs), with the errors that identity arguments from the
    command line can raise turned into usage errors."""
    try:
        return fn(*args, **kwargs)
    except HypothesisNotMet as exc:
        raise CliError(f"hypothesis not met: {exc}", EX_USAGE) from None
    except ValueError as exc:  # GraphParameterError or an unparsable --at
        raise CliError(f"bad --at argument: {exc}", EX_USAGE) from None


def _run_verify(args, out) -> int:
    g, spec = _load_graph(args.graph)
    g = _apply_ops(g, args.op or [])
    record, vargs = _identity(args.theorem, args, g, spec)
    if args.numeric and record.graph is None:
        raise CliError(f"no numeric referee for {args.theorem}", EX_USAGE)
    label = args.graph if not args.op else None
    report = _usage_errors(verify_identity, args.theorem, *vargs, label=label)
    for line in report.lines():
        _emit(out, line)
    if report.status == PASS and args.numeric:
        numeric_report = roots_match(report.formula, record.graph(*vargs),
                                     _alpha_list(args), args.tol,
                                     label=label or g.describe())
        for line in numeric_report.lines():
            _emit(out, line)
        if numeric_report.status != PASS:
            return 1
    if report.status == PASS:
        return 0
    if report.status == HYPOTHESIS_NOT_MET:
        return 2
    return 1


def _alpha_list(args) -> list[Fraction]:
    if args.alphas:
        return [_parse_alpha(x) for x in args.alphas.split(",")]
    return alpha_grid()


def _suite_rows():
    rows = []
    for spec_text in ("complete:3", "complete:5", "complete:7",
                      "complete_bipartite:2,3", "complete_bipartite:4,4",
                      "star:4", "star:7"):
        spec = FamilySpec.parse(spec_text)
        rows.append(("family-spectrum", (spec,), spec_text))
        side = "first" if spec.kind == "complete_bipartite" else None
        rows.append(("submatrix-spectrum", (spec, side) if side else (spec,),
                     spec_text))
    star4 = family_generate(FamilySpec.parse("star:4"))
    k5 = family_generate(FamilySpec.parse("complete:5"))
    k13 = family_generate(FamilySpec.parse("star:4"))
    rows.append(("coalescence", (star4, 0, k5, 0), "pineapple via coalescence"))
    rows.append(("coalescence", (k13, 1, k13, 1), "double broom via coalescence"))
    rows.append(("pendant-one", (k5, 0, 3), "complete:5 plus 3 pendants"))
    rows.append(("pendant-many", (k5, (0, 2, 4)), "complete:5 pendants at 0,2,4"))
    for desc, g in corpus.regular_corpus(6, min_r=1):
        rows.append(("subdivision-aalpha", (g,), desc))
        rows.append(("rgraph-aalpha", (g,), desc))
        rows.append(("qgraph-line", (g,), desc))
        r = g.degree(0)
        if r >= 2:
            rows.append(("line-regular-aalpha", (g,), desc))
            rows.append(("line-regular-a", (g,), desc))
            rows.append(("complement-regular", (g,), desc))
            rows.append(("total-aalpha", (g,), desc))
    for a, b in ((1, 3), (2, 3), (3, 4)):
        g = family_generate(FamilySpec("complete_bipartite", (a, b)))
        rows.append(("line-semiregular", (g,), f"complete_bipartite:{a},{b}"))
        rows.append(("classical-line-semiregular", (g,),
                     f"complete_bipartite:{a},{b}"))
    return rows


def _run_suite(args, out) -> int:
    rows = _suite_rows()
    failures = 0
    skipped = 0
    header = f"{'identity':28} {'graph':34} {'status'}"
    _emit(out, header)
    _emit(out, "-" * len(header))
    for identity, vargs, label in rows:
        report = verify_identity(identity, *vargs, label=label)
        if report.status == FAIL:
            failures += 1
        elif report.status == HYPOTHESIS_NOT_MET:
            skipped += 1
        _emit(out, f"{identity:28} {label:34} {report.status}")
    _emit(out, "-" * len(header))
    _emit(out, f"checked={len(rows)} failed={failures} skipped={skipped}")
    return 1 if failures else 0


def run(argv=None, stdout=None) -> int:
    out = stdout or sys.stdout
    parser = _Parser(prog="alphapoly", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_graph=True):
        if need_graph:
            p.add_argument("--graph", required=True,
                           help="family spec, edge-list file path, or - for stdin")
            p.add_argument("--op", action="append", default=[],
                           help="pipeline op, repeatable (line, complement, ...)")
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p_graph = sub.add_parser("graph", help="print the built graph")
    add_common(p_graph)
    p_op = sub.add_parser("op", help="apply ops and print the result")
    add_common(p_op)
    p_char = sub.add_parser("charpoly", help="print the exact polynomial")
    add_common(p_char)
    p_char.add_argument("--method", default="direct",
                        help="direct or formula:<theorem-id>")
    p_char.add_argument("--at", default=None,
                        help="extra identity arguments (see README)")
    p_spec = sub.add_parser("spectrum", help="numeric eigenvalues at a weight")
    add_common(p_spec)
    p_spec.add_argument("--alpha", required=True, help="weight in [0,1], p/q or decimal")
    p_ver = sub.add_parser("verify", help="check one identity")
    add_common(p_ver)
    p_ver.add_argument("--theorem", required=True)
    p_ver.add_argument("--at", default=None,
                       help="identity arguments, e.g. coalesce vertices 'u,v'")
    p_ver.add_argument("--numeric", action="store_true",
                       help="also referee the result numerically")
    p_ver.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_ver.add_argument("--alphas", default=None, help="comma separated weights")
    p_suite = sub.add_parser("suite", help="run the bundled corpus")
    add_common(p_suite, need_graph=False)

    try:
        args = parser.parse_args(argv)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                return _dispatch(args, fh)
        return _dispatch(args, out)
    except CliError as exc:
        print(f"alphapoly: {exc}", file=sys.stderr)
        return exc.code


def _dispatch(args, out) -> int:
    cmd = args.command
    if cmd == "suite":
        return _run_suite(args, out)
    if cmd == "verify":
        return _run_verify(args, out)
    g, spec = _load_graph(args.graph)
    if cmd == "op" and not args.op:
        raise CliError("op subcommand needs at least one --op", EX_USAGE)
    g = _apply_ops(g, args.op or [])
    if cmd in ("graph", "op"):
        _emit(out, format_edge_list(g))
        return 0
    if cmd == "charpoly":
        method = args.method
        if method == "direct":
            poly = charpoly_direct(g)
        elif method.startswith("formula:"):
            record, vargs = _identity(method.split(":", 1)[1], args, g, spec)
            poly = _usage_errors(record.formula, *vargs)
        else:
            raise CliError(f"unknown method {method!r}", EX_USAGE)
        _emit(out, format_bipoly(poly))
        return 0
    if cmd == "spectrum":
        alpha = _parse_alpha(args.alpha)
        values = numeric_spectrum(g, alpha)
        _emit(out, " ".join(f"{v:.17g}" for v in values))
        return 0
    raise CliError(f"unknown command {cmd!r}", EX_USAGE)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
