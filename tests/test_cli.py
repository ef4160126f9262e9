"""Command line behaviour: output formats, pipelines and exit codes."""

import io

from alphapoly import (
    FamilySpec,
    cf_family_spectrum,
    charpoly_direct,
    family_generate,
    parse_bipoly,
)
from alphapoly.cli import run
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
