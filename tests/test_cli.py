"""Command line behaviour: output formats, pipelines and exit codes."""

import io
import re
from pathlib import Path

import pytest

from alphapoly import (
    THEOREM_IDS,
    FamilySpec,
    cf_family_spectrum,
    charpoly_direct,
    family_generate,
    format_bipoly,
    parse_bipoly,
)
from alphapoly.cli import run
from alphapoly.closedforms import IDENTITIES
from alphapoly import operations as ops
from conftest import fam


def run_cli(*argv):
    out = io.StringIO()
    code = run(list(argv), stdout=out)
    return code, out.getvalue()


def test_charpoly_matches_closed_form():
    code, text = run_cli("charpoly", "--graph", "complete:3")
    assert code == 0
    assert parse_bipoly(text.strip()) == \
        cf_family_spectrum(FamilySpec("complete", (3,))).expand()


def test_charpoly_round_trip():
    for source in ("complete:5", "double_broom:3,2,4", "petersen"):
        code, text = run_cli("charpoly", "--graph", source)
        assert code == 0
        assert parse_bipoly(text.strip()) == \
            charpoly_direct(family_generate(FamilySpec.parse(source)))


def test_charpoly_formula_method():
    code, text = run_cli("charpoly", "--graph", "complete:5",
                         "--method", "formula:line-regular-aalpha")
    assert code == 0
    assert parse_bipoly(text.strip()) == \
        charpoly_direct(ops.line_graph(fam("complete", 5)))


def test_spectrum_output():
    code, text = run_cli("spectrum", "--graph", "complete:3", "--alpha", "1/2")
    assert code == 0
    values = [float(v) for v in text.split()]
    assert len(values) == 3
    assert max(abs(x - y) for x, y in zip(values, [2.0, 0.5, 0.5])) < 1e-8


def test_spectrum_accepts_decimal_weight():
    code, text = run_cli("spectrum", "--graph", "complete:2", "--alpha", "0.25")
    assert code == 0
    values = [float(v) for v in text.split()]
    assert abs(values[0] - 1.0) < 1e-12 and abs(values[1] + 0.5) < 1e-12


def test_verify_exit_codes():
    code, text = run_cli("verify", "--theorem", "line-regular-aalpha",
                         "--graph", "complete:5")
    assert code == 0 and "status=pass" in text
    code, text = run_cli("verify", "--theorem", "line-regular-aalpha",
                         "--graph", "star:4")
    assert code == 2 and "status=hypothesis-not-met" in text


def test_verify_numeric_mode():
    code, text = run_cli("verify", "--theorem", "total-aalpha",
                         "--graph", "complete:4", "--numeric",
                         "--alphas", "0,1/4,1/2", "--tol", "1e-8")
    assert code == 0
    assert text.count("status=pass") == 2


def test_verify_numeric_high_order_polynomials_pass():
    # exact power sums: in floats the Newton cancellation failed these
    for theorem, graph in (("total-aalpha", "cycle:7"),
                           ("line-regular-aalpha", "complete:7")):
        code, text = run_cli("verify", "--theorem", theorem, "--graph", graph,
                             "--numeric")
        assert code == 0, text
        assert text.count("status=pass") == 2


def test_verify_numeric_computes_formula_side_once(monkeypatch):
    from alphapoly import closedforms
    calls = []
    real = closedforms.cf_coalescence

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(closedforms, "cf_coalescence", counted)
    code, text = run_cli("verify", "--theorem", "coalescence", "--graph", "star:4",
                         "--at", "1,1", "--numeric")
    assert code == 0, text
    assert text.count("status=pass") == 2
    assert len(calls) == 1


def test_verify_coalescence_with_at():
    code, text = run_cli("verify", "--theorem", "coalescence",
                         "--graph", "star:4", "--at", "1,1")
    assert code == 0


def test_verify_submatrix_side():
    for side in ("center", "leaf"):
        code, text = run_cli("verify", "--theorem", "submatrix-spectrum",
                             "--graph", "star:5", "--at", side)
        assert code == 0 and "status=pass" in text


def test_pipeline_matches_library():
    code, text = run_cli("charpoly", "--graph", "complete:3",
                         "--op", "line", "--op", "complement")
    assert code == 0
    expected = charpoly_direct(ops.complement(ops.line_graph(fam("complete", 3))))
    assert parse_bipoly(text.strip()) == expected


def test_graph_subcommand_edge_list():
    code, text = run_cli("graph", "--graph", "path:3")
    assert code == 0
    assert text.splitlines() == ["3 2", "0 1", "1 2"]


def test_op_requires_pipeline():
    code, _ = run_cli("op", "--graph", "path:3")
    assert code == 64


def test_edge_list_from_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3 3\n0 1\n0 2\n1 2\n")
    code, text = run_cli("charpoly", "--graph", str(path))
    assert code == 0
    assert parse_bipoly(text.strip()) == charpoly_direct(fam("complete", 3))


def test_exit_codes_for_bad_input(tmp_path):
    code, _ = run_cli("charpoly", "--graph", "no/such/file.txt")
    assert code == 66
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n0 9\n")
    code, _ = run_cli("charpoly", "--graph", str(bad))
    assert code == 65
    code, _ = run_cli("charpoly", "--graph", "cycle:2")
    assert code == 64
    code, _ = run_cli("verify", "--theorem", "nonesuch", "--graph", "path:3")
    assert code == 64
    code, _ = run_cli("bogus")
    assert code == 64


def test_output_file(tmp_path):
    target = tmp_path / "out.txt"
    code, _ = run_cli("charpoly", "--graph", "complete:2", "--out", str(target))
    assert code == 0
    assert parse_bipoly(target.read_text().strip()) == \
        charpoly_direct(fam("complete", 2))


def test_suite_passes():
    code, text = run_cli("suite")
    assert code == 0
    assert "failed=0" in text


# one canonical passing input per identity: (graph source, --at or None)
CANONICAL = {
    "family-spectrum": ("complete_bipartite:2,3", None),
    "submatrix-spectrum": ("star:5", "leaf"),
    "complement-regular": ("cycle:5", None),
    "pendant-one": ("complete:4", "1,2"),
    "pendant-many": ("cycle:5", "0,2"),
    "coalescence": ("star:4", "1,1"),
    "line-regular-aalpha": ("complete:5", None),
    "line-regular-a": ("complete:4", None),
    "line-semiregular": ("complete_bipartite:2,3", None),
    "subdivision-aalpha": ("complete:4", None),
    "subdivision-a": ("cycle:5", None),
    "rgraph-aalpha": ("complete:4", None),
    "rgraph-a": ("cycle:4", None),
    "qgraph-line": ("complete:4", None),
    "qgraph-aalpha": ("complete:4", None),
    "qgraph-a": ("cycle:5", None),
    "total-aalpha": ("complete:4", None),
    "total-a": ("cycle:4", None),
    "classical-line-semiregular": ("complete_bipartite:2,3", None),
}


def identity_argv(command, theorem, graph, at=None, *extra):
    argv = ["--graph", graph, *(["--at", at] if at else []), *extra]
    if command == "verify":
        return ("verify", "--theorem", theorem, *argv)
    return ("charpoly", "--method", f"formula:{theorem}", *argv)


@pytest.mark.parametrize("identity", THEOREM_IDS)
def test_every_identity_verifies_and_prints_its_formula(identity):
    graph, at = CANONICAL[identity]
    code, text = run_cli(*identity_argv("verify", identity, graph, at))
    assert code == 0 and "status=pass" in text, text
    spec = FamilySpec.parse(graph)
    record = IDENTITIES[identity]
    expected = record.formula(*record.parse_at(family_generate(spec), spec, at))
    code, text = run_cli(*identity_argv("charpoly", identity, graph, at))
    assert code == 0
    assert text == format_bipoly(expected) + "\n"


@pytest.mark.parametrize("identity", THEOREM_IDS)
def test_every_identity_numeric_referee(identity, capsys):
    graph, at = CANONICAL[identity]
    code, text = run_cli(*identity_argv("verify", identity, graph, at, "--numeric"))
    if IDENTITIES[identity].graph is None:
        assert code == 64 and text == ""
        assert f"no numeric referee for {identity}" in capsys.readouterr().err
    else:
        assert code == 0 and text.count("status=pass") == 2, text


def test_formula_method_computes_only_the_formula_side():
    charpoly_direct.cache_clear()
    code, _ = run_cli("charpoly", "--graph", "complete:5",
                      "--method", "formula:line-regular-aalpha")
    assert code == 0
    assert charpoly_direct.cache_info().currsize == 1


@pytest.mark.parametrize("command", ("verify", "charpoly"))
@pytest.mark.parametrize("theorem, graph, at", (
    ("coalescence", "star:4", "9,9"),
    ("coalescence", "star:4", "1,2,3"),
    ("pendant-one", "complete:4", "0,0"),
    ("pendant-many", "complete:4", "0,0"),
    ("submatrix-spectrum", "star:4", "bogus"),
))
def test_bad_at_argument_is_usage_error(command, theorem, graph, at, capsys):
    code, text = run_cli(*identity_argv(command, theorem, graph, at))
    assert code == 64 and text == ""
    assert "bad --at argument" in capsys.readouterr().err


def test_formula_method_hypothesis_not_met(capsys):
    # verify reports it in a verdict; charpoly has no verdict to print
    code, text = run_cli(*identity_argv("verify", "family-spectrum", "path:3"))
    assert code == 2 and "status=hypothesis-not-met" in text
    code, text = run_cli(*identity_argv("charpoly", "family-spectrum", "path:3"))
    assert code == 64 and text == ""
    assert "hypothesis not met" in capsys.readouterr().err


@pytest.mark.parametrize("command", ("verify", "charpoly"))
@pytest.mark.parametrize("theorem", ("family-spectrum", "submatrix-spectrum"))
def test_spectrum_identities_reject_op(command, theorem, capsys):
    code, text = run_cli(*identity_argv(command, theorem, "complete:4", None,
                                        "--op", "line"))
    assert code == 64 and text == ""
    assert "no --op" in capsys.readouterr().err


def test_readme_lists_the_theorem_ids():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| `([a-z-]+)` +\|", readme, re.MULTILINE)
    assert tuple(rows) == THEOREM_IDS
