"""The command-line surface: subcommands, output schema, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from booleancomplex import beta_complete
from booleancomplex import ideal as ideal_module
from booleancomplex.cli import (
    EXIT_BUDGET,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PIPE,
    SCHEMA_VERSION,
    run,
)

K3_EDGES = "0 1\n1 2\n2 0"


def run_json(capsys, argv):
    code = run(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


# ----------------------------------------------------------------------
# beta

def test_beta_edges_over_the_vertex_cap(capsys):
    path = "; ".join(f"{u} {u + 1}" for u in range(100, 165))  # 66 vertices
    assert run(["beta", "--edges", path]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: at most 64 vertices are supported, got 66\n"


def test_beta_family_two_methods(capsys):
    code, data = run_json(capsys, ["beta", "--family", "A:6", "--method", "recursion,euler"])
    assert code == EXIT_OK
    assert data["schema"] == SCHEMA_VERSION
    assert data["beta"] == {"recursion": 5, "euler": 5}


def test_beta_inline_edges_triangle(capsys):
    code, data = run_json(capsys, ["beta", "--edges", K3_EDGES, "--method", "recursion,euler"])
    assert code == EXIT_OK
    assert set(data["beta"].values()) == {2}


def test_beta_all_methods_text(capsys):
    assert run(["beta", "--edges", K3_EDGES, "--method",
                "recursion,euler,subset_formula,homology,morse"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("= 2") == 5


def test_beta_unknown_method(capsys):
    # each route has one spelling, the ROUTES key listed in --help
    for method in ("sorcery", "rec", "subset"):
        assert run(["beta", "--family", "A:3", "--method", method]) == EXIT_PARSE, method
        assert capsys.readouterr().err == f"error: unknown method {method!r}\n"


# ----------------------------------------------------------------------
# chi / enumerate

def test_chi_reports_implied_count(capsys):
    code, data = run_json(capsys, ["chi", "--family", "A:3"])
    assert code == EXIT_OK
    assert data["chi"] == 2 and data["beta"] == 1


def test_enumerate_rank_sizes_and_words(capsys):
    code, data = run_json(capsys, ["enumerate", "--family", "A:2", "--words"])
    assert code == EXIT_OK
    assert data["rank_sizes"] == [2, 2]
    assert data["ranks"] == [["0", "1"], ["01", "10"]]


def test_enumerate_budget_exit(capsys):
    assert run(["enumerate", "--family", "K:6", "--budget", "100"]) == EXIT_BUDGET


def test_closed_output_pipe_exits_quietly():
    # as `enumerate ... | head -n 1`: K7's words (96 kB) outgrow the pipe
    # buffer, so the writer is still printing when the reader closes
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", "from booleancomplex.cli import console_main; console_main()",
         "enumerate", "--family", "K:7", "--words"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"graph: 7 vertices, 21 edges\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == EXIT_PIPE
    assert proc.stderr.read() == b""
    proc.stderr.close()


# ----------------------------------------------------------------------
# matching / homology / family

def test_matching_verifies(capsys):
    code, data = run_json(capsys, ["matching", "--family", "A:3", "--at-vertex", "0"])
    assert code == EXIT_OK
    assert data["acyclic"] and data["h1"] and data["h2"] and data["h3"]
    assert data["matching"] == {
        "at_vertex": 0,
        "pairs": [
            {"lower": lo, "upper": up}
            for lo, up in (("1", "21"), ("10", "210"), ("0", "02"), ("12", "102"), ("01", "021"))
        ],
        "unmatched_rank0": "2",
        "unmatched_maximal": ["012"],
    }


def test_matching_at_vertex_reads_input_labels(capsys):
    # input labels 5, 9, 12 become internal 0, 1, 2; output stays internal
    code, data = run_json(capsys, ["matching", "--edges", "5 9; 9 12", "--at-vertex", "9"])
    assert code == EXIT_OK
    assert data["matching"]["at_vertex"] == 1
    assert run(["matching", "--edges", "5 9; 9 12", "--at-vertex", "9"]) == EXIT_OK
    assert "label mapping: 0<-5 1<-9 2<-12" in capsys.readouterr().out


def test_matching_at_vertex_outside_the_input_is_parse_error(capsys):
    # 1 is an internal label only; it must not silently anchor at input 9
    assert run(["matching", "--edges", "5 9; 9 12", "--at-vertex", "1"]) == EXIT_PARSE
    assert "not in the input graph" in capsys.readouterr().err
    assert run(["matching", "--family", "A:3", "--at-vertex", "3"]) == EXIT_PARSE


def test_homology_cycles(capsys):
    code, data = run_json(capsys, ["homology", "--family", "A:2", "--cycles"])
    assert code == EXIT_OK
    assert data["betti"] == [0, 1]
    assert data["top_cycles"] == [["01", "10"]]


def test_budget_binds_every_enumerating_command(capsys):
    for argv in (["homology"], ["matching"], ["beta", "--method", "homology"],
                 ["beta", "--method", "morse"]):
        assert run(argv + ["--family", "K:7", "--budget", "100"]) == EXIT_BUDGET, argv
        assert "budget exceeded" in capsys.readouterr().err


def test_recursion_answers_k64_where_every_other_route_refuses(capsys):
    # the recursion refuses no graph, so crosscheck reports it alone
    code, data = run_json(capsys, ["beta", "--family", "K:64", "--method", "recursion"])
    assert code == EXIT_OK and data["beta"] == {"recursion": beta_complete(64)}
    code, data = run_json(capsys, ["crosscheck", "--family", "K:64"])
    assert code == EXIT_OK and data["values"] == {"recursion": beta_complete(64)}
    assert data["skipped"] == ["euler", "subset_formula", "homology", "morse"]


def test_counting_commands_never_enumerate(capsys):
    before = ideal_module._enumerate.cache_info()
    for argv in (["chi", "--family", "cycle:9"], ["enumerate", "--family", "D:9"]):
        assert run(argv) == EXIT_OK, argv
    after = ideal_module._enumerate.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    assert "rank sizes: 9 " in capsys.readouterr().out


def test_over_budget_messages(capsys):
    # K10 has 9,864,100 elements; counting refuses it at the counting
    # default and building at the building default
    for argv, budget in ((["chi"], 2_000_000), (["enumerate", "--words"], 200_000),
                         (["homology"], 200_000), (["matching"], 200_000)):
        assert run(argv + ["--family", "K:10"]) == EXIT_BUDGET, argv
        assert f"exceeds the element budget ({budget})" in capsys.readouterr().err
    # K9's 986,409 elements are refused by the count before any is built
    misses = ideal_module._enumerate.cache_info().misses
    for argv in (["homology"], ["matching"]):
        assert run(argv + ["--family", "K:9"]) == EXIT_BUDGET, argv
        assert "exceeds the element budget (200000)" in capsys.readouterr().err
    assert ideal_module._enumerate.cache_info().misses == misses


def test_homology_and_morse_routes_run_past_seven_vertices(capsys):
    code, data = run_json(capsys, ["beta", "--family", "A:8", "--method", "homology,morse"])
    assert code == EXIT_OK
    assert data["beta"] == {"homology": 13, "morse": 13}
    # K9 is over the building default: refused before any word is built
    misses = ideal_module._enumerate.cache_info().misses
    assert run(["beta", "--family", "K:9", "--method", "morse"]) == EXIT_BUDGET
    assert "exceeds the element budget (200000)" in capsys.readouterr().err
    assert ideal_module._enumerate.cache_info().misses == misses


def test_raised_budget_adds_no_enumeration(capsys):
    # the budget binds the root; the build's sub-ideals are cached by graph
    def misses(argv):
        ideal_module._enumerate.cache_clear()
        assert run(["matching", "--family", "A:5"] + argv) == EXIT_OK
        return ideal_module._enumerate.cache_info().misses

    assert misses(["--budget", "1000000"]) == misses([])
    capsys.readouterr()


def test_family_report(capsys):
    code, data = run_json(capsys, ["family", "--family", "E:8"])
    assert code == EXIT_OK
    assert data["beta"] == 10 and data["sphere_dimension"] == 7
    assert len(data["graph"]["vertices"]) == 8


def test_family_requires_family_flag(capsys):
    # family reads only --family and --json; argparse refuses anything else
    for argv in (["--edges", K3_EDGES], ["--family", "K:9", "--budget", "1"]):
        with pytest.raises(SystemExit) as exc:
            run(["family"] + argv)
        assert exc.value.code == EXIT_PARSE, argv


def test_family_spec_errors_name_the_fault(capsys):
    for spec, err in (
        ("Z:3", "unknown family 'Z'"),
        ("A:x", "bad rank in family spec 'A:x'"),
        ("K:5_0", "bad rank in family spec 'K:5_0'"),
        ("A", "family A needs a rank, e.g. A:4"),
        ("E:5", "family E needs n in {6, 7, 8}, got 5"),
        ("A:0", "family A needs n >= 1, got 0"),
        ("I2:1", "family I2 needs m >= 2, got 1"),
        ("F4:5", "family F4 needs n = 4, got 5"),
    ):
        assert run(["family", "--family", spec]) == EXIT_PARSE, spec
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {err}\n", spec


# ----------------------------------------------------------------------
# crosscheck

def test_crosscheck_single_graph(capsys):
    code, data = run_json(capsys, ["crosscheck", "--edges", K3_EDGES])
    assert code == EXIT_OK
    assert data["agree"] is True
    assert set(data["values"].values()) == {2}


def test_crosscheck_sweep_five_vertices_exits_zero(capsys):
    code, data = run_json(capsys, ["crosscheck", "--sweep", "5"])
    assert code == EXIT_OK
    assert data["classes"] == 52 and data["agree"] is True
    assert data["skipped"] == []


def test_crosscheck_sweep_out_of_range_is_parse_error(capsys):
    for value in ("0", "-3", "7"):
        assert run(["crosscheck", "--sweep", value]) == EXIT_PARSE
        assert capsys.readouterr().out == ""


def test_negative_budget_is_parse_error(capsys):
    # a negative budget would refuse every ideal, so it is bad input; 0 is a
    # budget, which the counting routes refuse and the recursion never reads
    for argv in (["chi", "--family", "A:3"], ["beta", "--family", "A:3"],
                 ["crosscheck", "--sweep", "3"]):
        assert run(argv + ["--budget", "-1"]) == EXIT_PARSE, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --budget must be at least 0, got -1\n", argv
    assert run(["beta", "--family", "A:3", "--budget", "0"]) == EXIT_OK
    assert run(["chi", "--family", "A:3", "--budget", "0"]) == EXIT_BUDGET
    capsys.readouterr()


def test_crosscheck_sweep_with_a_graph_source_is_parse_error(capsys):
    for source in (["--family", "A:3"], ["--edges", K3_EDGES], ["--file", "absent.txt"]):
        assert run(["crosscheck", "--sweep", "3"] + source) == EXIT_PARSE, source
        assert "--sweep" in capsys.readouterr().err


def test_crosscheck_skips_routes_over_budget(capsys):
    code, data = run_json(capsys, ["crosscheck", "--family", "K:7", "--budget", "100"])
    assert code == EXIT_OK
    assert data["skipped"] == ["euler", "homology", "morse"]
    assert data["values"] == {"recursion": 1854, "subset_formula": 1854}


def test_crosscheck_sweep_reports_skipped_routes(capsys):
    code, data = run_json(capsys, ["crosscheck", "--sweep", "3", "--budget", "1"])
    assert code == EXIT_OK
    assert data["skipped"] == ["euler", "homology", "morse"]
    assert run(["crosscheck", "--sweep", "3", "--budget", "1"]) == EXIT_OK
    assert "skipped (over budget): euler, homology, morse" in capsys.readouterr().out


def test_crosscheck_mismatch_exit(capsys, monkeypatch):
    import booleancomplex.beta as beta_module

    monkeypatch.setattr(
        beta_module, "beta_euler",
        lambda g, budget=None: beta_module.BetaResult(99, "euler"),
    )
    code = run(["crosscheck", "--edges", K3_EDGES])
    assert code == EXIT_MISMATCH
    assert "MISMATCH" in capsys.readouterr().out
    code = run(["crosscheck", "--sweep", "3"])
    assert code == EXIT_MISMATCH
    assert "MISMATCH" in capsys.readouterr().out
    code, data = run_json(capsys, ["crosscheck", "--sweep", "3"])
    assert code == EXIT_MISMATCH
    assert data["agree"] is False and data["values"]["euler"] == 99


# ----------------------------------------------------------------------
# input handling

def test_file_input(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("# triangle\n0 1\n1 2\n2 0\n")
    code, data = run_json(capsys, ["beta", "--file", str(path)])
    assert code == EXIT_OK and data["beta"]["recursion"] == 2


def test_missing_file_is_parse_error(capsys):
    assert run(["beta", "--file", "/nonexistent/g.txt"]) == EXIT_PARSE


def test_bad_edges_exit(capsys):
    assert run(["beta", "--edges", "one two"]) == EXIT_PARSE
    assert run(["beta", "--edges", "1_0 2"]) == EXIT_PARSE


def test_no_input_exit(capsys):
    assert run(["beta"]) == EXIT_PARSE
    capsys.readouterr()
    assert run(["beta", "--edges", "# only a comment"]) == EXIT_PARSE
    assert capsys.readouterr().err == "error: the input graph is empty\n"


def test_label_mapping_reported(capsys):
    assert run(["beta", "--edges", "5 9"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "label mapping" in out


def test_json_graph_round_trip(capsys):
    code, first = run_json(capsys, ["beta", "--edges", K3_EDGES, "--method", "recursion,euler"])
    assert code == EXIT_OK
    edges_text = "\n".join(f"{u} {v}" for u, v in first["graph"]["edges"])
    code, second = run_json(capsys, ["beta", "--edges", edges_text, "--method", "recursion,euler"])
    assert code == EXIT_OK
    assert second == first
