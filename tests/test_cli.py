"""End-to-end runs of the command line interface.

Every test drives main() directly and checks the exit code plus captured
output, so the argparse wiring, the handlers and the emitters are all
exercised together.
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import flatlat
import flatlat.cli as cli
from flatlat import (
    all_flats,
    enumerate_lattices,
    format_lattice,
    parse,
    realizing_complex,
)

import helpers
from conftest import FIXTURES

TRIANGLES = str(FIXTURES / "glued_triangles.cx")
NONREAL6 = str(FIXTURES / "nonrealizable6.lat")
CHAIN3 = str(FIXTURES / "chain3.lat")
BOOL2 = str(FIXTURES / "boolean2.lat")
PATH4 = str(FIXTURES / "path4.gr")
NONBR = str(FIXTURES / "nonbr.cx")
ROOT = FIXTURES.parent.parent
# fixture commands with their stdout and exit code, frozen from the CLI
EXPECTED = json.loads((ROOT / "bench" / "cli_expected.json").read_text())


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- classify ----------------------------------------------------------------


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", NONREAL6)
    assert code == 0
    lines = out.splitlines()
    assert "atoms: 1 2 3" in lines
    assert "height: 3" in lines
    assert "atomistic: true" in lines
    assert "semimodular: false" in lines
    assert "semimodular_witness: T m 2 3 B" in lines
    assert "boolean: false" in lines


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", NONREAL6, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["elements"] == ["B", "1", "2", "3", "m", "T"]
    assert data["geometric"] is False
    assert data["semimodular_witness"] == ["T", "m", "2", "3", "B"]


def test_classify_reports_semimodularity_witness(capsys, tmp_path, triangles):
    path = tmp_path / "flats.lat"
    path.write_text(format_lattice(all_flats(triangles).lattice))
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0
    assert "semimodular: false" in out
    assert "semimodular_witness: {1,2,3,4} {1,2} {2} {4} {}" in out


# -- flats / closure ----------------------------------------------------------


def test_flats_text(capsys):
    code, out, _ = run(capsys, "flats", TRIANGLES)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "count: 7"
    assert sum(1 for l in lines if l.startswith("cover: ")) == 9


def test_flats_json(capsys):
    code, out, _ = run(capsys, "flats", TRIANGLES, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 7
    assert [] in data["flats"] and ["1", "2", "3", "4"] in data["flats"]
    assert len(data["covers"]) == 9


def test_flats_dot(capsys):
    code, out, _ = run(capsys, "flats", TRIANGLES, "--dot")
    assert code == 0
    assert out.startswith("digraph") and out.count("->") == 9


def test_flats_with_a_separator_in_a_vertex_name(capsys, monkeypatch):
    doc = "complex\nvertices x y x,y\nfacet x x,y\nfacet y x,y\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    code, out, _ = run(capsys, "flats", "-", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 4
    assert ["{}", "{x\\,y}"] in data["covers"]


def test_closure(capsys):
    code, out, _ = run(capsys, "closure", TRIANGLES, "--set", "3,4")
    assert code == 0 and out == "closure: 1 2 3 4\n"
    code, out, _ = run(capsys, "closure", TRIANGLES, "--set", "1 2")
    assert code == 0 and out == "closure: 1 2\n"


def test_closure_set_escapes_a_comma_in_a_vertex_name(capsys, monkeypatch):
    doc = "complex\nvertices x y x,y a\\b\nfacet x x,y a\\b\nfacet y x,y a\\b\n"

    def closure_of(text):
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        code, out, _ = run(capsys, "closure", "-", "--set", text, "--format", "json")
        assert code == 0
        data = json.loads(out)
        return data["set"], data["closure"]

    assert closure_of("x,y") == (["x", "y"], ["x", "y"])
    assert closure_of("x\\,y") == (["x,y"], ["x,y"])
    assert closure_of("x\\,y,a\\\\b") == (["x,y", "a\\b"], ["x,y", "a\\b"])
    # a backslash before any other character is kept as it is
    assert closure_of("a\\b") == (["a\\b"], ["a\\b"])


# -- brsc ----------------------------------------------------------------------


def test_brsc_accepts(capsys):
    code, out, _ = run(capsys, "brsc", TRIANGLES)
    assert code == 0
    assert "boolean_representable: true" in out


def test_brsc_rejects_with_witness(capsys):
    code, out, _ = run(capsys, "brsc", NONBR)
    assert code == 1
    assert "boolean_representable: false" in out
    assert "violation: 1 2" in out


def test_brsc_verbose_lists_orderings(capsys):
    code, out, _ = run(capsys, "brsc", TRIANGLES, "--verbose")
    lines = out.splitlines()
    assert code == 0
    assert "face {1,2,3}: ordering 1 2 3" in lines
    assert "face {}: ordering" in lines

    code, out, _ = run(capsys, "brsc", NONBR, "--verbose")
    assert code == 1
    assert "face {1,2}: no transversal ordering" in out.splitlines()


def test_brsc_verbose_json(capsys):
    code, out, _ = run(capsys, "brsc", TRIANGLES, "--verbose", "--format", "json")
    data = json.loads(out)
    assert data["boolean_representable"] is True
    full = next(e for e in data["faces"] if e["face"] == ["1", "2", "3"])
    assert full["transversal"] is True
    assert full["chain"][0] == [] and full["chain"][-1] == ["1", "2", "3", "4"]


def test_brsc_oracle_agrees(capsys):
    code, _, err = run(capsys, "brsc", TRIANGLES, "--oracle")
    assert code == 0 and err == ""


def test_brsc_oracle_flags_disagreement(capsys, monkeypatch):
    monkeypatch.setattr(cli, "transversal_witness", lambda *a, **k: None)
    code, _, err = run(capsys, "brsc", TRIANGLES, "--oracle")
    assert code == 4
    assert "disagreement" in err


# -- realizable / construct -----------------------------------------------------


def test_realizable_counterexample(capsys):
    code, out, _ = run(capsys, "realizable", NONREAL6)
    assert code == 1
    lines = out.splitlines()
    assert "realizable: false" in lines
    assert "method: height-3" in lines
    assert "superclique: 1 3" in lines


def test_realizable_json(capsys):
    code, out, _ = run(capsys, "realizable", NONREAL6, "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["realizable"] is False
    assert data["supercliques"] == [["1", "3"], ["2", "3"]]


def test_realizable_and_superclique_list_a_witness_in_vertex_order(capsys, tmp_path):
    """With atom 1 renamed z, label-string order would put 3 before z."""
    path = tmp_path / "renamed.lat"
    text = pathlib.Path(NONREAL6).read_text()
    path.write_text(text.replace("B 1", "B z").replace("cover 1 ", "cover z "))
    code, out, _ = run(capsys, "realizable", str(path))
    assert code == 1
    assert [l for l in out.splitlines() if l.startswith("superclique: ")] == [
        "superclique: z 3",
        "superclique: 2 3",
    ]
    assert run(capsys, "superclique", str(path)) == (
        0,
        "superclique: z 3\nsuperclique: 2 3\n",
        "",
    )
    code, out, _ = run(capsys, "realizable", str(path), "--format", "json")
    assert json.loads(out)["supercliques"] == [["z", "3"], ["2", "3"]]


def test_realizable_non_atomistic(capsys):
    code, out, _ = run(capsys, "realizable", CHAIN3)
    assert code == 1
    assert "method: atomistic" in out
    assert "non_atomistic_witness: T" in out


def test_realizable_positive(capsys):
    code, out, _ = run(capsys, "realizable", BOOL2)
    assert code == 0
    assert "method: height-le-2" in out


def test_realizable_force_general(capsys):
    code, out, _ = run(capsys, "realizable", NONREAL6, "--force-general")
    assert code == 1
    assert "method: general" in out
    assert "canonical_flat_count: 8 (lattice has 6 elements)" in out


def test_realizable_oracle(capsys):
    code, _, err = run(capsys, "realizable", BOOL2, "--oracle")
    assert code == 0 and err == ""
    code, _, err = run(capsys, "realizable", NONREAL6, "--oracle")
    assert code == 1 and err == ""


def test_realizable_oracle_flags_disagreement(capsys, monkeypatch):
    real = cli.is_realizable

    def general_path_flipped(lat, force_general=False, override=False):
        report = real(lat, force_general=force_general, override=override)
        if force_general:
            return report._replace(realizable=not report.realizable)
        return report

    monkeypatch.setattr(cli, "is_realizable", general_path_flipped)
    code, out, err = run(capsys, "realizable", BOOL2, "--oracle")
    assert code == 4 and out == ""
    assert err == (
        "oracle disagreement: height-le-2 says True, general path says False\n"
    )


def test_realizable_oracle_checks_every_row_that_applies(capsys, monkeypatch):
    """On B2 height-le-2 decides, and boolean and general apply too: the
    oracle names the boolean row when only that row is flipped."""

    def flipped(decide):
        def decide_flipped(lat, override):
            answer = decide(lat, override)
            return answer and (not answer[0], answer[1])

        return decide_flipped

    rows = [(m, flipped(d) if m == "boolean" else d) for m, d in cli._DECIDERS]
    monkeypatch.setattr(cli, "_DECIDERS", tuple(rows))
    code, out, err = run(capsys, "realizable", BOOL2, "--oracle")
    assert code == 4 and out == ""
    assert err == "oracle disagreement: boolean says False, general path says True\n"


def test_realizable_oracle_reuses_the_general_path_it_was_asked_for(
    capsys, monkeypatch, tmp_path
):
    """The oracle builds T(L) no second time when the general row decided,
    whether it was forced or, on Pi_5, is the first row that applies."""
    import flatlat.realize as realize

    calls, build = [], realize.transversal_complex

    def counting(lat, override=False):
        calls.append(lat)
        return build(lat, override)

    monkeypatch.setattr(realize, "transversal_complex", counting)
    code, out, err = run(capsys, "realizable", NONREAL6, "--force-general", "--oracle")
    assert (code, err, len(calls)) == (1, "", 1)
    assert "method: general" in out.splitlines()

    calls.clear()
    path = tmp_path / "pi5.lat"
    path.write_text(format_lattice(helpers.partition_lattice(5)))
    code, out, err = run(capsys, "realizable", str(path), "--oracle")
    assert (code, err, len(calls)) == (0, "", 1)
    assert "method: general" in out.splitlines()


@pytest.mark.parametrize(
    "lattice, method, count",
    [
        (lambda: helpers.powerset_lattice("abcd"), "boolean", None),
        (lambda: helpers.partition_lattice(5), "general", 52),
    ],
    ids=["B4", "Pi5"],
)
def test_realizable_reaches_the_boolean_and_general_rows(
    capsys, tmp_path, lattice, method, count
):
    """B4 has height 4 = its atom count, and Pi_5 height 4 with 10 atoms, so
    neither is decided by an earlier row."""
    path = tmp_path / "input.lat"
    path.write_text(format_lattice(lattice()))
    code, out, err = run(capsys, "realizable", str(path))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert f"method: {method}" in lines
    if count is not None:
        assert f"canonical_flat_count: {count} (lattice has {count} elements)" in lines
    code, out, err = run(capsys, "realizable", str(path), "--format", "json")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert (data["realizable"], data["method"]) == (True, method)
    assert data.get("canonical_flat_count") == count


def test_construct_text_reparses(capsys, chain3):
    code, out, _ = run(capsys, "construct", CHAIN3)
    assert code == 0
    expected, _ = realizing_complex(chain3)
    assert parse(out).value == expected


def test_construct_verify(capsys):
    code, out, _ = run(capsys, "construct", CHAIN3, "--verify")
    assert code == 0
    assert out.splitlines()[0].startswith("# verified")


def test_construct_json(capsys):
    code, out, _ = run(capsys, "construct", CHAIN3, "--verify", "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data["verified"] is True
    assert data["predicted_flats"]["B"] == []
    assert data["predicted_flats"]["m"] == ["m^1", "m^2", "m^3"]
    assert len(data["vertices"]) == 6


def test_construct_over_the_soft_limit_exits_3(capsys, tmp_path, monkeypatch):
    path = tmp_path / "boolean16.lat"
    path.write_text(format_lattice(helpers.powerset_lattice("abcd")))
    monkeypatch.delenv("FLATLAT_LIMIT_OVERRIDE", raising=False)
    code, out, err = run(capsys, "construct", str(path))
    assert code == 3
    assert out == ""
    assert "soft limit" in err


def test_tl_holds_the_atoms_to_the_flats_limit_before_walking_t_of_l(
    capsys, tmp_path, monkeypatch
):
    """M_25 gives T(L) 25 vertices: tl exits 3 with the flats limit's
    message before the walk, and answers with override."""
    path = tmp_path / "m25.lat"
    path.write_text(format_lattice(helpers.m_lattice(25)))
    monkeypatch.delenv("FLATLAT_LIMIT_OVERRIDE", raising=False)
    assert run(capsys, "tl", str(path)) == (
        3,
        "",
        "error: flat enumeration on 25 vertices exceeds soft limit 24; "
        "pass override=True to lift\n",
    )
    monkeypatch.setenv("FLATLAT_LIMIT_OVERRIDE", "1")
    code, out, err = run(capsys, "tl", str(path), "--format", "json")
    data = json.loads(out)
    assert (code, err) == (0, "")
    assert len(data["vertices"]) == 25 and len(data["facets"]) == 25 * 24 // 2


def test_construct_verify_of_a_ten_element_chain_passes_without_override(
    capsys, tmp_path, monkeypatch
):
    # ten elements pass the construction's limit; the complex has 3 * 9 = 27
    # vertices, past the limit of the flat enumeration, but it lists its
    # minimal non-faces, so verifying it walks no face and is not held there
    path = tmp_path / "chain10.lat"
    path.write_text(format_lattice(helpers.chain_lattice(10)))
    monkeypatch.delenv("FLATLAT_LIMIT_OVERRIDE", raising=False)
    code, out, _ = run(capsys, "construct", str(path))
    assert code == 0
    assert len(out.splitlines()[1].split()) == 1 + 27  # the vertices line
    code, out, err = run(capsys, "construct", str(path), "--verify")
    assert (code, err) == (0, "")
    assert out.splitlines()[0].startswith("# verified")
    code, out, _ = run(capsys, "construct", str(path), "--verify", "--format", "json")
    assert code == 0 and json.loads(out)["verified"] is True


@pytest.mark.parametrize("argv", [["construct", CHAIN3, "--verify"], ["tl", NONREAL6]])
def test_complex_text_is_formatted_only_when_written(capsys, monkeypatch, argv):
    """The text and the JSON payload are each made only in their format."""
    calls, format_complex, complex_payload = [], cli.format_complex, cli._complex_payload

    def counting(complex_):
        calls.append("text")
        return format_complex(complex_)

    def counting_payload(complex_, extra):
        calls.append("json")
        return complex_payload(complex_, extra)

    monkeypatch.setattr(cli, "format_complex", counting)
    monkeypatch.setattr(cli, "_complex_payload", counting_payload)
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert (code, calls) == (0, ["json"]) and json.loads(out)["vertices"]
    code, out, _ = run(capsys, *argv)
    assert (code, calls) == (0, ["json", "text"]) and parse(out).value.vertices


# -- tl / matrix ----------------------------------------------------------------


def test_tl_output(capsys):
    code, out, _ = run(capsys, "tl", NONREAL6)
    assert code == 0
    built = parse(out).value
    assert built.vertices == ("1", "2", "3")
    assert built.facets == (frozenset({"1", "2", "3"}),)


def test_tl_rejects_non_atomistic(capsys):
    code, _, err = run(capsys, "tl", CHAIN3)
    assert code == 2
    assert err.startswith("error:")


def test_tl_oracle(capsys):
    code, _, err = run(capsys, "tl", NONREAL6, "--oracle")
    assert code == 0 and err == ""


def test_tl_oracle_flags_disagreement(capsys, monkeypatch):
    def slow(lat, atoms, override):
        return len(atoms) < 2

    monkeypatch.setattr(cli, "is_chain_transversal_bruteforce", slow)
    code, out, err = run(capsys, "tl", NONREAL6, "--oracle")
    assert code == 4 and out == ""
    assert err == "oracle disagreement on atom set 1 2\n"


def test_matrix_text(capsys):
    code, out, _ = run(capsys, "matrix", NONREAL6)
    assert code == 0
    # 0 marks that the row element lies above the column atom
    assert out.splitlines() == [
        "1 1 1",
        "0 1 1",
        "1 0 1",
        "1 1 0",
        "0 0 1",
        "0 0 0",
    ]


def test_matrix_needs_atomistic_input(capsys):
    code, _, err = run(capsys, "matrix", CHAIN3)
    assert code == 2 and "error:" in err


# -- superclique -----------------------------------------------------------------


def test_superclique_graph(capsys):
    code, out, _ = run(capsys, "superclique", PATH4)
    assert code == 0
    assert sum(1 for l in out.splitlines() if l.startswith("superclique: ")) == 3


def test_superclique_from_lattice(capsys):
    code, out, _ = run(capsys, "superclique", NONREAL6, "--format", "json")
    assert code == 0
    assert json.loads(out)["supercliques"] == [["1", "3"], ["2", "3"]]


def test_superclique_none_found(capsys, tmp_path):
    path = tmp_path / "edgeless.gr"
    path.write_text("graph\nvertices a b c\n")
    code, out, _ = run(capsys, "superclique", str(path))
    assert code == 1
    assert out == "supercliques: none\n"


def test_superclique_oracle(capsys):
    code, _, err = run(capsys, "superclique", PATH4, "--oracle")
    assert code == 0 and err == ""


def test_superclique_oracle_flags_disagreement(capsys, monkeypatch):
    monkeypatch.setattr(cli, "find_supercliques", lambda g: ())
    code, _, err = run(capsys, "superclique", PATH4, "--oracle")
    assert code == 4
    assert "disagreement" in err


PATH4_CLIQUES = "superclique: 1 2\nsuperclique: 2 3\nsuperclique: 3 4\n"


@pytest.mark.parametrize(
    "flags, growth, scan",
    [
        ((), 1, 0),
        (("--naive",), 0, 1),
        (("--oracle",), 1, 1),
        (("--naive", "--oracle"), 1, 1),
    ],
)
def test_superclique_runs_each_path_at_most_once(
    capsys, monkeypatch, flags, growth, scan
):
    calls = {"growth": 0, "scan": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        cli, "find_supercliques", counted("growth", cli.find_supercliques)
    )
    monkeypatch.setattr(
        cli, "supercliques_bruteforce", counted("scan", cli.supercliques_bruteforce)
    )
    assert run(capsys, "superclique", PATH4, *flags) == (0, PATH4_CLIQUES, "")
    assert calls == {"growth": growth, "scan": scan}


def test_naive_superclique_limit_and_override(capsys, tmp_path, monkeypatch):
    labels = " ".join(f"v{i}" for i in range(17))
    path = tmp_path / "big.gr"
    path.write_text(f"graph\nvertices {labels}\n")
    code, _, err = run(capsys, "superclique", str(path), "--naive")
    assert code == 3 and "error:" in err
    monkeypatch.setenv("FLATLAT_LIMIT_OVERRIDE", "1")
    code, out, _ = run(capsys, "superclique", str(path), "--naive")
    assert code == 1 and out == "supercliques: none\n"


# -- plumbing ---------------------------------------------------------------------


def test_hasse(capsys):
    code, out, _ = run(capsys, "hasse", NONREAL6)
    assert code == 0
    assert out.startswith("digraph") and out.count("->") == 7


def test_reads_stdin(capsys, monkeypatch):
    with open(NONREAL6, "r", encoding="utf-8") as handle:
        monkeypatch.setattr(sys, "stdin", io.StringIO(handle.read()))
    code, out, _ = run(capsys, "classify", "-")
    assert code == 0 and "height: 3" in out


def test_parse_error_exit(capsys, tmp_path):
    path = tmp_path / "bad.lat"
    path.write_text("lattice\nelements a\ncover a b\n")
    code, _, err = run(capsys, "classify", str(path))
    assert code == 2
    assert err.startswith("error: line 3")


@pytest.mark.parametrize(
    "covers, message",
    [
        ("a b\na c", "elements 'b' and 'c' have no unique join"),
        ("a c\nb c\nc d", "elements 'a' and 'b' have no unique meet"),
        ("a b\nb a", "relation is not antisymmetric on 'a', 'b'"),
    ],
)
def test_classify_rejects_an_invalid_lattice(capsys, monkeypatch, covers, message):
    pairs = [line.split() for line in covers.splitlines()]
    labels = sorted({lab for pair in pairs for lab in pair})
    text = "lattice\nelements " + " ".join(labels) + "\n"
    text += "".join(f"cover {low} {high}\n" for low, high in pairs)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run(capsys, "classify", "-")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        ("format 1\n", 1, 1, "expected a kind line"),
        ("# no kind\n  format 1 # header only\n", 2, 3, "expected a kind line"),
        ("lattice extra\n", 1, 9, "unexpected token after kind"),
        ("format 1\ngraph x\n", 2, 7, "unexpected token after kind"),
        ("complex\n", 1, 1, "expected a vertices line"),
        ("# c\n\ncomplex\n", 3, 1, "expected a vertices line"),
        ("lattice\n", 1, 1, "expected an elements line"),
        ("format 1\n\n# x\nlattice\n", 4, 1, "expected an elements line"),
        ("graph\n  vertices\n", 2, 3, "vertices line needs at least one label"),
        ("lattice\nelements # none\n", 2, 1, "elements line needs at least one label"),
    ],
)
def test_a_document_without_its_kind_or_header_labels_exits_2(
    capsys, monkeypatch, text, line, column, message
):
    with pytest.raises(flatlat.ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column, exc.value.message) == (line, column, message)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run(capsys, "classify", "-")
    assert (code, out, err) == (2, "", f"error: line {line}, column {column}: {message}\n")


def test_missing_file_exit(capsys):
    code, _, err = run(capsys, "classify", "/no/such/file")
    assert code == 2 and "error:" in err


def test_an_error_while_writing_the_report_exits_2(capsys, monkeypatch):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = cli.main(["classify", CHAIN3])
    assert (code, capsys.readouterr().err) == (2, "error: [Errno 32] Broken pipe\n")


def test_wrong_kind_exit(capsys, monkeypatch):
    code, _, err = run(capsys, "flats", NONREAL6)
    assert code == 2
    assert "expected a complex document" in err
    monkeypatch.setattr(sys, "stdin", io.StringIO("# k\n\nlattice\nelements a\n"))
    code, out, err = run(capsys, "flats", "-")
    assert (code, out) == (2, "")
    assert err == "error: line 3, column 1: expected a complex document, found lattice\n"


def test_flats_scan_limit(capsys, tmp_path):
    labels = " ".join(f"v{i}" for i in range(26))
    path = tmp_path / "big.cx"
    path.write_text(f"complex\nvertices {labels}\n")
    code, _, err = run(capsys, "flats", str(path))
    assert code == 3 and "error:" in err


@pytest.mark.parametrize("command", sorted(EXPECTED))
def test_fixture_command_matches_its_frozen_output(capsys, monkeypatch, command):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("FLATLAT_LIMIT_OVERRIDE", raising=False)
    code, out, _ = run(capsys, *command.split())
    assert (code, out) == (EXPECTED[command]["exit"], EXPECTED[command]["stdout"])


# -- fuzzing -------------------------------------------------------------------

NAMES = ["a", "b", "c", "d", "e", "f"]
# the subcommands reading each kind of document, with the flags they accept
COMMANDS = {
    "lattice": {
        "classify": [],
        "realizable": ["--force-general", "--oracle"],
        "construct": ["--verify"],
        "tl": ["--oracle"],
        "matrix": [],
        "superclique": ["--naive", "--oracle"],
        "hasse": [],
    },
    "complex": {"flats": ["--dot"], "closure": [], "brsc": ["--verbose", "--oracle"]},
    "graph": {"superclique": ["--naive", "--oracle"]},
}
DIRECTIVES = {
    "lattice": ("elements", "cover", 2, 2),
    "complex": ("vertices", "facet", 1, 3),
    "graph": ("vertices", "edge", 2, 2),
}
SMALL_LATTICES = list(enumerate_lattices(6))
RARELY = st.sampled_from([False, False, False, False, True])


@st.composite
def command_lines(draw):
    """A command line and the document it reads on stdin: a lattice, complex
    or graph on at most 6 labels, sometimes with an invalid relation, an
    undeclared label or the wrong kind for the command."""
    kind = draw(st.sampled_from(sorted(DIRECTIVES)))
    labels = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=6, unique=True))
    if kind == "lattice" and draw(st.booleans()):
        lattice = draw(st.sampled_from(SMALL_LATTICES))
        text, labels = format_lattice(lattice), list(lattice.labels)
    else:
        head, word, least, most = DIRECTIVES[kind]
        pool = labels + ["z"] if draw(RARELY) else labels
        distinct = len(pool) >= least and not draw(RARELY)
        row = st.lists(
            st.sampled_from(pool), min_size=least, max_size=most, unique=distinct
        )
        rows = draw(st.lists(row, max_size=8))
        lines = [kind, f"{head} " + " ".join(labels)]
        lines += [f"{word} " + " ".join(row) for row in rows]
        text = "\n".join(lines) + "\n"
    if draw(RARELY):
        kind = draw(st.sampled_from(sorted(DIRECTIVES)))
    command, flags = draw(st.sampled_from(sorted(COMMANDS[kind].items())))
    argv = [command, "-", "--format", draw(st.sampled_from(["text", "json"]))]
    argv += [flag for flag in flags if draw(st.booleans())]
    if command == "closure":
        chosen = draw(st.lists(st.sampled_from(labels + ["z"]), max_size=3))
        argv += ["--set", ",".join(chosen)]
    return argv, text


@settings(max_examples=150)
@given(command_lines())
def test_every_command_on_random_small_documents_exits_cleanly(command_line):
    argv, text = command_line
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        stdin, sys.stdin = sys.stdin, io.StringIO(text)
        try:
            code = cli.main(argv)
        finally:
            sys.stdin = stdin
    assert code in (0, 1, 2, 3), (argv, text, err.getvalue())
    assert "Traceback" not in err.getvalue()


WRONG_KINDS = [
    (command, kind)
    for command in sorted(set().union(*COMMANDS.values()))
    for kind in sorted(COMMANDS)
    if command not in COMMANDS[kind]
]
MINIMAL_DOCUMENTS = {
    "lattice": "lattice\nelements a\n",
    "complex": "complex\nvertices a\n",
    "graph": "graph\nvertices a\n",
}


@pytest.mark.parametrize("command, kind", WRONG_KINDS)
def test_every_command_rejects_the_kinds_it_does_not_read(
    capsys, monkeypatch, command, kind
):
    monkeypatch.setattr(sys, "stdin", io.StringIO(MINIMAL_DOCUMENTS[kind]))
    argv = [command, "-"] + (["--set", "a"] if command == "closure" else [])
    code, out, err = run(capsys, *argv)
    expected = " or ".join(k for k in sorted(COMMANDS) if command in COMMANDS[k])
    assert (code, out) == (2, "")
    assert err == f"error: line 1, column 1: expected a {expected} document, found {kind}\n"


def _package_env():
    """The environment with the tested package's directory first on PYTHONPATH."""
    src = str(pathlib.Path(flatlat.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return {**os.environ, "PYTHONPATH": path}


def test_python_dash_m_flatlat_runs_the_cli():
    env = _package_env()
    runs = [
        subprocess.run(
            [sys.executable, "-m", module, "classify", CHAIN3],
            capture_output=True,
            text=True,
            env=env,
        )
        for module in ("flatlat", "flatlat.cli")
    ]
    assert [(r.returncode, r.stdout) for r in runs] == [(0, runs[1].stdout)] * 2
    assert "height: 2" in runs[0].stdout


def test_importing_the_cli_loads_neither_dataclasses_inspect_nor_json():
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import flatlat.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=_package_env(),
        check=True,
    )
    loaded = set(run.stdout.split())
    assert "flatlat.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "json"} == set()
