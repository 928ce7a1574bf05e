import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from smallcover import cli, cohomology, gf2, invariants
from smallcover.bounds import BoundReport
from smallcover.cli import main

import tuple_reference as ref

ROOT = Path(__file__).resolve().parent.parent


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def klein(tmp_path):
    return write(tmp_path, "klein.json", {
        "polytope": {"type": "polygon", "edges": 4},
        "characteristic": {"type": "facet_vectors",
                           "vectors": ["10", "01", "10", "11"]},
        "involution": "10",
    })


@pytest.fixture
def tower(tmp_path):
    return write(tmp_path, "tower.json", {
        "polytope": {"type": "product_of_simplices", "dims": [16, 8]},
        "characteristic": {"type": "bott_matrix", "dims": [16, 8], "beta": {}},
    })


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_ok(capsys, klein):
    code, out = run(capsys, "validate", klein)
    assert code == 0 and out.strip() == "valid"


def test_validate_invalid_exit_1(capsys, tmp_path):
    path = write(tmp_path, "bad.json", {
        "polytope": {"type": "polygon", "edges": 4},
        "characteristic": {"type": "facet_vectors",
                           "vectors": ["10", "01", "10", "10"]},
    })
    code, out = run(capsys, "validate", path)
    assert code == 1 and out.startswith("invalid")


def test_malformed_exit_2(capsys, tmp_path):
    path = tmp_path / "mal.json"
    path.write_text("{ nope")
    assert main(["betti", str(path)]) == 2
    # schema violations are malformed input too
    bad = write(tmp_path, "schema.json", {"polytope": {"type": "dodecahedron"}})
    assert main(["betti", bad]) == 2


def test_unknown_command_exit_64(capsys, klein):
    assert main(["frobnicate", klein]) == 64
    assert main([]) == 64


# argv shapes for the route test; "K" stands for the Klein bottle problem
_ROUTED_ARGV = [
    ["betti", "K"], ["bounds", "K", "--format", "json", "--invariant", "tc"],
    ["zcl", "K", "--exact-budget", "3"], ["dold", "K", "--dold", "1,2"],
    ["bounds", "--format", "json", "K"],
    ["bounds", "K", "--format=json", "--invariant=cat"], ["zcl", "K", "--exact-budget=2"],
    ["bounds", "K", "--inv", "all"], ["bounds", "K", "--in", "all"], ["zcl", "K", "--exact", "2"],
    ["ring", "K", "--format", "xml"], ["bounds", "K", "--invariant", "nope"],
    ["zcl", "K", "--exact-budget", "-1"], ["zcl", "K", "--exact-budget", "x"],
    ["bounds", "K", "--invariant"], ["zcl", "K", "--certificate-only=1"],
    ["betti", "K", "--frob"], ["betti", "K", "--frob=1"], ["betti", "K", "-x"],
    ["betti", "--frob", "K"], ["ring", "K", "--exact-budget", "5"],
    ["betti"], ["bounds", "--format", "json"], ["betti", "K", "K"],
    ["betti", "K", "K", "--frob"], ["betti", "-1"],
    ["betti", "--", "K"], ["betti", "K", "--"], ["--", "betti", "K"], ["betti", "K", "--", "-x"],
    ["-h"], ["--help"], ["--he"], ["betti", "-h"], ["bounds", "K", "--help"], ["verify", "-h"],
    [], ["frobnicate", "K"], ["bett", "K"], ["--format", "json", "betti", "K"], ["-x", "betti", "K"],
    ["verify", "--suite", "binom"], ["verify", "--suite=binom", "--max-m", "2", "--seed", "4"],
    ["verify", "--suite", "nope"], ["verify", "--max-m", "0"], ["verify", "--seed", "x"],
    ["verify", "K"], ["verify", "--suite"],
]


@pytest.mark.parametrize("argv", _ROUTED_ARGV, ids=lambda argv: " ".join(argv) or "no-args")
def test_argv_reaches_the_command_as_the_top_level_parser_reads_it(capsys, monkeypatch,
                                                                    klein, argv):
    argv = [klein if word == "K" else word for word in argv]
    code = main(argv)
    routed = (code, *capsys.readouterr())
    monkeypatch.setattr(cli, "_args", cli._PARSER.parse_args)
    code = main(argv)
    assert routed == (code, *capsys.readouterr())


def test_main_builds_no_parser(capsys, klein, monkeypatch):
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    for argv in (["betti", klein], ["zcl", klein], ["frobnicate", klein]):
        main(argv)
    capsys.readouterr()
    assert built == []


@pytest.mark.parametrize("command, flags", [
    ("bounds", ["--involution", "10", "--assume-fixed-set-connected"]),
    ("zcl", ["--exact-budget", "1"]),
    ("dold", ["--dold", "2,3"]),
], ids=["bounds", "zcl", "dold"])
def test_flags_do_not_leak_into_the_next_call(capsys, tmp_path, command, flags):
    path = write(tmp_path, "klein_dold.json", {
        "polytope": {"type": "polygon", "edges": 4},
        "characteristic": {"type": "facet_vectors",
                           "vectors": ["10", "01", "10", "11"]},
        "dold": {"p": [1]},
    })
    plain = run(capsys, command, path, "--format", "json")
    flagged = run(capsys, command, path, "--format", "json", *flags)
    assert flagged[0] == 0 and flagged != plain
    assert run(capsys, command, path, "--format", "json") == plain


def _entry_env(**extra):
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def _entry_point(*argv):
    return subprocess.run([sys.executable, "-m", "smallcover.cli", *argv], cwd=ROOT,
                          env=_entry_env(), capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("command", ["ring", "zcl"])
def test_closed_pipe_is_quiet(command):
    problem = str(ROOT / "tests" / "golden" / "twisted_3x8.problem.json")
    argv = [sys.executable, "-m", "smallcover.cli", command, problem, "--format", "json"]
    # the pipe closed after the first read, and closed before any write
    for reads in (1, 0):
        child = subprocess.Popen(argv, cwd=ROOT, env=_entry_env(PYTHONUNBUFFERED="1"),
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        first = child.stdout.readline() if reads else None
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=120) == 0 and err == "", err
        assert first in (None, "{\n")


def test_entry_point_in_a_fresh_interpreter(klein):
    done = _entry_point("betti", klein)
    assert (done.returncode, done.stdout) == (0, "1 2 1\n"), done.stderr
    assert _entry_point("frobnicate", klein).returncode == 64
    assert _entry_point().returncode == 64
    # an unknown option after a known command, read from sys.argv
    done = _entry_point("betti", klein, "--frob")
    assert (done.returncode, done.stdout) == (64, "")
    assert done.stderr.endswith("smallcover: error: unrecognized arguments: --frob\n")
    done = _entry_point("--help")
    assert done.returncode == 0 and done.stdout.startswith("usage: smallcover")


def test_betti_table(capsys, klein):
    code, out = run(capsys, "betti", klein)
    assert code == 0 and out.strip() == "1 2 1"


def test_ring_json(capsys, klein):
    code, out = run(capsys, "ring", klein, "--format", "json")
    data = json.loads(out)
    assert data["betti"] == [1, 2, 1]
    assert len(data["generators"]) == 2


def test_cl(capsys, klein):
    code, out = run(capsys, "cl", klein)
    assert out.strip() == "cup-length = 2"


def test_zcl_exact(capsys, klein):
    code, out = run(capsys, "zcl", klein, "--format", "json")
    data = json.loads(out)
    assert data["lo"] == 3 and data["hi"] == 3


def test_zcl_certificate_only(capsys, tower):
    code, out = run(capsys, "zcl", tower, "--certificate-only")
    assert "certificate length = 46" in out


def test_zcl_certificate_only_reads_the_peeled_tower(capsys, tmp_path, klein):
    # facet vectors over a product carry the tower their peel finds
    code, out = run(capsys, "zcl", _rp_facet_vectors(tmp_path, 16), "--certificate-only",
                    "--format", "json")
    assert code == 0 and json.loads(out)["certificate_length"] == 31
    err = assert_malformed(capsys, ["zcl", klein, "--certificate-only"])
    assert err == "error: --certificate-only needs a product of simplices\n"


def test_bounds_tc_table(capsys, tower):
    code, out = run(capsys, "bounds", tower, "--invariant", "tc")
    assert "TC ∈ [47,49]" in out


def test_bounds_all_json_round_trip(capsys, klein):
    code, out = run(capsys, "bounds", klein, "--format", "json")
    data = json.loads(out)
    assert {r["invariant"] for r in data["reports"]} == {"cat", "TC", "TC_S", "cat_eq"}
    for r in data["reports"]:
        assert BoundReport.from_json(r).to_json() == r


def test_bounds_cateq_needs_involution(capsys, tower):
    assert main(["bounds", tower, "--invariant", "cateq"]) == 2


def test_bounds_cateq_names_a_zero_involution(capsys, klein, tower):
    assert main(["bounds", klein, "--invariant", "cateq", "--involution", "00"]) == 2
    assert capsys.readouterr().err == "error: a nonzero involution vector is required\n"
    # with no involution at all, the flag is what is missing
    assert main(["bounds", tower, "--invariant", "cateq"]) == 2
    assert "cateq needs an involution bitstring" in capsys.readouterr().err


def test_bounds_involution_flag(capsys, tmp_path):
    path = write(tmp_path, "noinv.json", {
        "polytope": {"type": "polygon", "edges": 4},
        "characteristic": {"type": "facet_vectors",
                           "vectors": ["10", "01", "10", "11"]},
    })
    code, out = run(capsys, "bounds", path, "--invariant", "cateq",
                    "--involution", "10")
    assert code == 0 and "cat_eq ∈ [4,4]" in out


def test_bounds_involution_flag_checks_the_length(capsys, klein):
    assert main(["bounds", klein, "--involution", "1"]) == 2
    assert "involution bit length differs" in capsys.readouterr().err


def test_bounds_flags_validate_once(capsys, tmp_path, monkeypatch):
    from smallcover import charfun

    calls = []
    validate = charfun.validate

    def counted(P, vectors):
        calls.append(P.family)
        return validate(P, vectors)

    monkeypatch.setattr(charfun, "validate", counted)
    monkeypatch.setattr(cohomology, "validate", counted)
    path = write(tmp_path, "noinv.json", {
        "polytope": {"type": "polygon", "edges": 5},
        "characteristic": {"type": "facet_vectors",
                           "vectors": ["10", "01", "10", "01", "11"]},
    })
    for flags in (["--involution", "10"], ["--assume-fixed-set-connected"]):
        calls.clear()
        code, _ = run(capsys, "bounds", path, *flags)
        assert code == 0 and len(calls) == 1, flags


def test_bounds_on_a_point(capsys, tmp_path):
    # a 0-dimensional small cover: one vertex on no facet
    point = write(tmp_path, "point.json", {
        "polytope": {"type": "explicit", "n": 0, "facet_count": 0, "vertices": [[]]},
        "characteristic": {"type": "facet_vectors", "vectors": []}})
    code, out = run(capsys, "bounds", point)
    assert code == 0
    assert "cat ∈ [1,1]" in out and "TC ∈ [1,1]" in out and "TCs ∈ [1,1]" in out
    code, out = run(capsys, "bounds", point, "--invariant", "tcs")
    assert code == 0 and out.startswith("TCs ∈ [1,1]\n")


def test_dold_command(capsys, tmp_path):
    path = write(tmp_path, "dold.json", {
        "polytope": {"type": "product_of_simplices", "dims": [2]},
        "characteristic": {"type": "bott_matrix", "dims": [2], "beta": {}},
        "dold": {"p": [2]},
    })
    code, out = run(capsys, "dold", path)
    assert code == 0 and "TC ∈ [7,9]" in out
    code, out = run(capsys, "dold", path, "--dold", "2,3")
    assert code == 0


def test_exact_budget_flag(capsys, klein):
    code, out = run(capsys, "zcl", klein, "--format", "json")
    assert json.loads(out)["lo_source"] == "exhaustive kernel power search"
    code, out = run(capsys, "zcl", klein, "--format", "json", "--exact-budget", "1")
    assert code == 0
    data = json.loads(out)
    assert data["lo"] <= 3 <= data["hi"]
    assert data["lo_source"] != "exhaustive kernel power search"


def test_exact_budget_must_be_non_negative(capsys, tmp_path, klein):
    for budget in ("-3", "-1", "x"):
        assert main(["zcl", klein, "--exact-budget", budget]) == cli.EX_USAGE
        assert "must be a non-negative integer" in capsys.readouterr().err
    code, out = run(capsys, "zcl", klein, "--exact-budget", "0")
    assert code == 0 and "exhaustive" not in out
    doc = json.loads(Path(klein).read_text())
    doc["options"] = {"exact_budget": -3}
    problem = write(tmp_path, "negative.json", doc)
    assert_malformed(capsys, ["zcl", problem])
    doc["options"] = {"exact_budget": 0}
    code, out = run(capsys, "zcl", write(tmp_path, "zero.json", doc))
    assert code == 0 and "exhaustive" not in out


def test_exact_budget_ceiling(capsys, tmp_path, klein):
    # the (3,)^6 tower's ring has dimension 4096: refused before any search
    cap = invariants.MAX_EXACT_BUDGET
    doc = {"polytope": {"type": "product_of_simplices", "dims": [3] * 6},
           "characteristic": {"type": "bott_matrix", "dims": [3] * 6}}
    path = write(tmp_path, "tower.json", doc)
    doc["options"] = {"exact_budget": 100000}
    in_doc = write(tmp_path, "budget.json", doc)
    for argv, code in ((["zcl", path, "--exact-budget", "100000"], cli.EX_USAGE),
                       (["zcl", in_doc], 2)):
        start = time.perf_counter()
        assert main(argv) == code
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert f"must be a non-negative integer at most {cap}" in err
        assert "Traceback" not in err
    code, out = run(capsys, "zcl", klein, "--exact-budget", str(cap))
    assert code == 0 and "exhaustive" in out


def test_exact_budget_flag_only_where_read(capsys, klein):
    # ring, betti, cl and validate never search, so they take no budget
    assert main(["ring", klein, "--exact-budget", "5"]) == 64
    capsys.readouterr()


def test_verify_suites(capsys):
    code, out = run(capsys, "verify", "--suite", "lemma", "--max-m", "2")
    assert code == 0 and "lemma" in out and "pass" in out
    code, out = run(capsys, "verify", "--suite", "binom")
    assert code == 0


def test_verify_fault_injection(capsys, monkeypatch):
    monkeypatch.setattr(cohomology, "verify_top_monomial", lambda B: False)
    code, out = run(capsys, "verify", "--suite", "lemma", "--max-m", "1")
    assert code == 1 and "FAIL" in out


_VERIFY_DEFAULT = ["lemma: 3573 cases, pass",
                   "betti: 15 cases, 1 draw skipped, pass",
                   "duality: 6 cases, 2 draws skipped, pass",
                   "certificate: 8 cases, pass",
                   "binom: 2145 cases, pass"]


@pytest.mark.parametrize("argv, lines", [
    ([], _VERIFY_DEFAULT),
    (["--seed", "7"], _VERIFY_DEFAULT[:2] + ["duality: 5 cases, 3 draws skipped, pass"]
     + _VERIFY_DEFAULT[3:]),
    (["--max-m", "2", "--max-n", "2", "--seed", "3"],
     ["lemma: 14 cases, pass", "betti: 16 cases, pass", "duality: 8 cases, pass",
      "certificate: 8 cases, pass", "binom: 2145 cases, pass"]),
], ids=["default", "seed-7", "small-seed-3"])
def test_verify_output_is_pinned(capsys, argv, lines):
    code, out = run(capsys, "verify", *argv)
    assert code == 0 and out.splitlines() == lines


def test_verify_refuses_an_oversized_lemma_sweep(capsys, monkeypatch):
    start = time.perf_counter()
    err = assert_malformed(capsys, ["verify", "--max-m", "4", "--max-n", "4"])
    assert time.perf_counter() - start < 1
    assert "more than 1048576 towers at --max-m 4 --max-n 4" in err
    for argv in (["--max-m", "1", "--max-n", "2000000"], ["--max-m", "10000"]):
        assert_malformed(capsys, ["verify", "--suite", "lemma", *argv])
    # the count is exact: the default sweep is 3 573 towers
    monkeypatch.setattr(cli, "_LEMMA_MAX_TOWERS", 3573)
    code, out = run(capsys, "verify", "--suite", "lemma")
    assert code == 0 and out == "lemma: 3573 cases, pass\n"
    monkeypatch.setattr(cli, "_LEMMA_MAX_TOWERS", 3572)
    assert_malformed(capsys, ["verify", "--suite", "lemma"])
    # the other suites do not sweep towers
    code, out = run(capsys, "verify", "--suite", "binom", "--max-m", "4", "--max-n", "4")
    assert code == 0


def test_verify_refuses_a_block_count_past_the_dimension_cap(capsys):
    for suite in ("betti", "duality", "certificate"):
        err = assert_malformed(capsys, ["verify", "--suite", suite, "--max-m", "1025"])
        assert "at most 1024 blocks" in err


def test_skipped_certificate_draws_draw_no_twisting(monkeypatch):
    calls = []
    draw = cli.sampling.random_bott_matrix
    monkeypatch.setattr(cli.sampling, "random_bott_matrix",
                        lambda dims, rng: calls.append(dims) or draw(dims, rng))
    # every certificate at --max-n 10^6 is longer than the suite expands
    outcomes = list(cli._suite_certificate(3, 10 ** 6, random.Random(1)))
    assert outcomes == [None] * 8 and calls == []
    outcomes = list(cli._suite_certificate(2, 2, random.Random(3)))
    assert outcomes == [""] * 8 and len(calls) == 8


def _flip_binom(monkeypatch):
    binom = cli.gf2.binom_odd
    monkeypatch.setattr(cli.gf2, "binom_odd",
                        lambda k, i: binom(k, i) != ((k, i) in {(5, 2), (7, 3)}))


def _longer_polygon_h(monkeypatch):
    # every polygon, the last six betti cases, disagrees with its h-vector
    h_vector = cli.polytope.h_vector

    class Longer:
        def __init__(self, P):
            self.h = h_vector(P).h + (1,) * (P.family[0] == "polygon")

    monkeypatch.setattr(cli.polytope, "h_vector", Longer)


def _degenerate_from_dimension_4(monkeypatch):
    pairing = cohomology.poincare_pairing

    def degenerate(ring):
        rep = pairing(ring)
        return cohomology.PairingReport(rep.nondegenerate and ring.P.n < 4, rep.by_degree)

    monkeypatch.setattr(cohomology, "poincare_pairing", degenerate)


@pytest.mark.parametrize("suite, seed, fault, line", [
    ("binom", "0", _flip_binom, "binom: 2145 cases, FAIL (C(5,2))"),
    ("betti", "0", _longer_polygon_h,
     "betti: 15 cases, 1 draw skipped, FAIL (('polygon', 3): betti (1, 1, 1) != h (1, 1, 1, 1))"),
    ("duality", "2", _degenerate_from_dimension_4,
     "duality: 7 cases, 1 draw skipped, FAIL (dims=[3, 1]: degenerate pairing "
     "(True, True, True, True, True))"),
], ids=["binom", "betti", "duality"])
def test_verify_reports_the_first_failure(capsys, monkeypatch, suite, seed, fault, line):
    fault(monkeypatch)
    code, out = run(capsys, "verify", "--suite", suite, "--seed", seed)
    assert code == 1 and out == line + "\n"
    # in a full run the other suites still pass, and the run fails
    code, out = run(capsys, "verify", "--seed", seed)
    failing = [x.split(":")[0] for x in out.splitlines() if "FAIL" in x]
    assert code == 1 and failing == [suite]


def test_readme_usage_names_every_suite():
    readme = (ROOT / "README.md").read_text()
    m = re.search(r"smallcover verify \[--suite ([\w|]+)\]", readme)
    assert m and m.group(1).split("|") == list(cli._SUITES)


def test_options_in_problem_file(capsys, tmp_path):
    path = write(tmp_path, "opts.json", {
        "polytope": {"type": "polygon", "edges": 4},
        "characteristic": {"type": "facet_vectors",
                           "vectors": ["10", "01", "10", "11"]},
        "options": {"format": "json"},
    })
    code, out = run(capsys, "betti", path)
    assert json.loads(out)["betti"] == [1, 2, 1]


def assert_malformed(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    return err


@pytest.mark.parametrize("shape, message", [
    ({"n": 2, "facet_count": 0, "vertices": []}, "at least one vertex"),
    ({"n": 0, "facet_count": 0, "vertices": []}, "at least one vertex"),
    ({"n": 2, "facet_count": 4, "vertices": [[0, 1], [1, 2], [2, 3], [3, 0], [0, 1]]},
     "vertex 4 repeats vertex 0"),
    ({"n": 2, "facet_count": 4, "vertices": [[0, 1], [1, 2], [2, 3], [3, 0], [0, 2]]},
     "facets [0] meet in 3"),
], ids=["no-vertex", "no-vertex-point", "repeated-vertex", "not-simple"])
def test_malformed_explicit_polytope_exit_2(capsys, tmp_path, shape, message):
    vectors = ["10", "01", "10", "11"][:shape["facet_count"]]
    path = write(tmp_path, "shape.json", {
        "polytope": {"type": "explicit", **shape},
        "characteristic": {"type": "facet_vectors", "vectors": vectors},
    })
    for command in ("validate", "ring", "bounds"):
        assert message in assert_malformed(capsys, [command, path])


def test_missing_dims_exit_2(capsys, tmp_path):
    path = write(tmp_path, "nodims.json", {
        "polytope": {"type": "product_of_simplices"},
        "characteristic": {"type": "bott_matrix", "dims": [2], "beta": {}},
    })
    assert_malformed(capsys, ["bounds", path])


def test_bad_budget_option_exit_2(capsys, tmp_path):
    path = write(tmp_path, "budget.json", {
        "polytope": {"type": "polygon", "edges": 4},
        "characteristic": {"type": "facet_vectors",
                           "vectors": ["10", "01", "10", "11"]},
        "options": {"exact_budget": "x"},
    })
    assert_malformed(capsys, ["zcl", path])


_INT_BASES = {
    "tower": {"polytope": {"type": "product_of_simplices", "dims": [2]},
              "characteristic": {"type": "bott_matrix", "dims": [2], "beta": {}},
              "dold": {"p": [1, 2]}, "options": {"exact_budget": 12}},
    "polygon": {"polytope": {"type": "polygon", "edges": 4},
                "characteristic": {"type": "facet_vectors",
                                   "vectors": ["10", "01", "10", "11"]}},
    "explicit": {"polytope": {"type": "explicit", "n": 2, "facet_count": 3,
                              "vertices": [[0, 1], [1, 2], [0, 2]]},
                 "characteristic": {"type": "facet_vectors", "vectors": ["10", "01", "11"]}},
}


@pytest.mark.parametrize("base, section, key, value", [
    ("tower", "polytope", "dims", "2"),
    ("tower", "polytope", "dims", [True, 1]),
    ("tower", "characteristic", "dims", [2.7]),
    ("tower", "characteristic", "dims", "2"),
    ("tower", "dold", "p", "12"),
    ("tower", "dold", "p", [1.0, 2]),
    ("tower", "options", "exact_budget", "12"),
    ("tower", "options", "exact_budget", 12.5),
    ("polygon", "polytope", "edges", 4.9),
    ("polygon", "polytope", "edges", "4"),
    ("explicit", "polytope", "n", 2.0),
    ("explicit", "polytope", "facet_count", "3"),
    ("explicit", "polytope", "vertices", "012"),
    ("explicit", "polytope", "vertices", [[0, 1], [1, 2], [0, 2.5]]),
])
def test_integer_fields_must_be_json_integers(capsys, tmp_path, base, section, key, value):
    doc = json.loads(json.dumps(_INT_BASES[base]))
    assert main(["dold", write(tmp_path, "base.json", doc), "--dold", "1"]) == 0
    capsys.readouterr()
    doc[section][key] = value
    problem = write(tmp_path, "ints.json", doc)
    for command in ("ring", "dold"):
        assert_malformed(capsys, [command, problem])


@pytest.mark.parametrize("doc", [
    {"polytope": {"type": "polygon", "edges": 4},
     "characteristic": {"type": "facet_vectors", "vectors": [["1", "0"], "01", "10", "11"]}},
    {"polytope": {"type": "polygon", "edges": 4},
     "characteristic": {"type": "facet_vectors", "vectors": ["10", "01", "10", "11"]},
     "involution": ["1", "0"]},
    {"polytope": {"type": "product_of_simplices", "dims": [1, 1]},
     "characteristic": {"type": "bott_matrix", "dims": [1, 1], "beta": {"2,1": ["1"]}}},
], ids=["vectors", "involution", "beta"])
def test_bitstrings_must_be_strings(capsys, tmp_path, doc):
    assert_malformed(capsys, ["betti", write(tmp_path, "bits.json", doc)])


_DOCUMENT_COMMANDS = ("validate", "ring", "betti", "cl", "zcl", "bounds", "dold")


@pytest.mark.parametrize("extra, vectors, code, message", [
    # the count is checked before the lengths
    ({}, ["10", "01", "100"], 1, "invalid characteristic: expected 4 vectors, got 3"),
    ({}, ["10", "01", "10", "110"], 1,
     "invalid characteristic: vector length differs from the dimension"),
    ({}, ["10", "01", "1", "11"], 1,
     "invalid characteristic: vector length differs from the dimension"),
    # a bitstring is checked on parsing, before the count
    ({}, ["10", "0x"], 2, "error: bad bitstring '0x'"),
    # the whole document is parsed before the lengths are checked
    ({"dold": []}, ["10", "01", "10", "110"], 2,
     "error: dold section must be an object, not list"),
], ids=["count-and-length", "length", "short", "bitstring-and-count", "length-and-dold"])
def test_facet_vector_errors_come_in_document_order(capsys, tmp_path, extra, vectors,
                                                    code, message):
    doc = {"polytope": {"type": "polygon", "edges": 4},
           "characteristic": {"type": "facet_vectors", "vectors": vectors}, **extra}
    path = write(tmp_path, "square.json", doc)
    for command in _DOCUMENT_COMMANDS:
        assert main([command, path]) == code, command
        assert capsys.readouterr() == ("", message + "\n"), command


@pytest.mark.parametrize("value", ["false", 0, 1])
def test_fixed_set_flag_must_be_a_json_boolean(capsys, tmp_path, value):
    doc = {"polytope": {"type": "polygon", "edges": 4},
           "characteristic": {"type": "facet_vectors", "vectors": ["10", "01", "10", "11"]},
           "involution": "10", "flags": {"fixed_set_connected": False}}
    code, out = run(capsys, "bounds", write(tmp_path, "flag.json", doc), "--invariant", "cateq")
    assert code == 0 and "cat_eq ∈ [4,4]" in out
    doc["flags"]["fixed_set_connected"] = value
    assert_malformed(capsys, ["bounds", write(tmp_path, "flag.json", doc),
                              "--invariant", "cateq"])


_KLEIN = {"polytope": {"type": "polygon", "edges": 4},
          "characteristic": {"type": "facet_vectors", "vectors": ["10", "01", "10", "11"]},
          "involution": "10"}
_TWISTED_11 = {"polytope": {"type": "product_of_simplices", "dims": [1, 1]},
               "characteristic": {"type": "bott_matrix", "dims": [1, 1], "beta": {"2,1": "1"}}}
_INTERVAL = {"polytope": {"type": "product_of_simplices", "dims": [1]},
             "characteristic": {"type": "facet_vectors", "vectors": ["1", "1"]}}


@pytest.mark.parametrize("base, path, value, message", [
    (_KLEIN, ["flags"], 0, "flags section must be an object"),
    (_KLEIN, ["flags"], False, "flags section must be an object"),
    (_KLEIN, ["flags"], [], "flags section must be an object"),
    (_KLEIN, ["flags"], [True], "flags section must be an object"),
    (_KLEIN, ["options"], [], "options section must be an object"),
    (_KLEIN, ["dold"], [], "dold section must be an object"),
    (_TWISTED_11, ["characteristic", "beta"], 0, "beta section must be an object"),
    (_TWISTED_11, ["characteristic", "beta"], [], "beta section must be an object"),
    (_TWISTED_11, ["characteristic", "beta"], {"2,1": "1", "2, 1": "0"},
     "beta block 2,1 is given twice"),
    (_TWISTED_11, ["characteristic", "beta"], {"2,1,3": "1"},
     "beta key '2,1,3' is not two integers k,j"),
    (_TWISTED_11, ["characteristic", "beta"], {"2,x": "1"},
     "beta key '2,x' is not two integers k,j"),
    (_INTERVAL, ["characteristic", "vectors"], "11", "vectors must be an array"),
], ids=["flags-0", "flags-false", "flags-empty-array", "flags-array", "options-array",
        "dold-array", "beta-0", "beta-array", "beta-repeated", "beta-key-three",
        "beta-key-text", "vectors-string"])
def test_sections_and_arrays_are_checked(capsys, tmp_path, base, path, value, message):
    doc = json.loads(json.dumps(base))
    assert main(["bounds", write(tmp_path, "base.json", doc)]) == 0
    capsys.readouterr()
    section = doc
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    assert main(["bounds", write(tmp_path, "bad.json", doc)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_absent_or_null_sections_read_as_empty(capsys, tmp_path):
    expected = run(capsys, "bounds", write(tmp_path, "base.json", _KLEIN))
    for extra in [{"flags": None}, {"options": None}, {"dold": None}, {"dold": {}},
                  {"dold": {"p": None}}, {"dold": {"p": []}}]:
        assert run(capsys, "bounds", write(tmp_path, "doc.json", {**_KLEIN, **extra})) == expected
    tower = json.loads(json.dumps(_TWISTED_11))
    tower["characteristic"]["beta"] = {}
    expected = run(capsys, "bounds", write(tmp_path, "base.json", tower))
    tower["characteristic"]["beta"] = None
    assert run(capsys, "bounds", write(tmp_path, "doc.json", tower)) == expected


def test_verify_sizes_must_be_positive(capsys):
    for argv in (["--max-m", "0"], ["--max-n", "0"], ["--suite", "betti", "--max-m", "-1"]):
        assert main(["verify", *argv]) == cli.EX_USAGE
        assert "must be a positive integer" in capsys.readouterr().err
    code, out = run(capsys, "verify", "--suite", "lemma", "--max-m", "1")
    assert code == 0 and out == "lemma: 3 cases, pass\n"


def test_bad_dold_flag_exit_2(capsys, klein):
    assert_malformed(capsys, ["dold", klein, "--dold", "2,x"])


def test_bounds_builds_the_polytope_once(capsys, tmp_path, monkeypatch):
    from smallcover import bounds, polytope

    calls = []
    build = polytope.product_of_simplices

    def counted(dims):
        calls.append(dims)
        return build(dims)

    monkeypatch.setattr(polytope, "product_of_simplices", counted)
    monkeypatch.setattr(bounds, "product_of_simplices", counted)
    path = write(tmp_path, "tower.json", {
        "polytope": {"type": "product_of_simplices", "dims": [3, 2]},
        "characteristic": {"type": "bott_matrix", "dims": [3, 2],
                           "beta": {"2,1": "11"}},
    })
    code, _ = run(capsys, "bounds", path, "--involution", "10000")
    assert code == 0 and len(calls) == 1


def test_facet_hypotheses_checked_once_per_manifold(capsys, tmp_path, monkeypatch):
    from smallcover import bounds

    calls = []
    check = bounds.simplex_facet_hypotheses

    def counted(P, vectors):
        calls.append(P.family)
        return check(P, vectors)

    monkeypatch.setattr(bounds, "simplex_facet_hypotheses", counted)
    path = write(tmp_path, "tower.json", {
        "polytope": {"type": "product_of_simplices", "dims": [3, 2]},
        "characteristic": {"type": "bott_matrix", "dims": [3, 2],
                           "beta": {"2,1": "11"}},
    })
    # the ring has dimension 12: the exact search runs at budget 12, not at 4
    for budget in ("12", "4"):
        for argv in (["bounds", path, "--invariant", "all", "--involution", "10000"],
                     ["dold", path, "--dold", "1"]):
            calls.clear()
            code, _ = run(capsys, *argv, "--exact-budget", budget)
            assert code == 0 and len(calls) == 1, (argv, budget)


@pytest.mark.parametrize("suite, draws", [("betti", 16), ("duality", 8)])
def test_verify_reports_skipped_draws(capsys, suite, draws):
    # at size 8, seed 0 draws products too large to build, such as
    # [7, 1, 5, 8, 7, 5, 8] with 373 248 vertices, and at --max-n 1500
    # products of dimension above 1 024: skipped, as the commands refuse them
    for seed, max_m, max_n in (("0", "3", "3"), ("1", "3", "3"), ("2", "3", "3"),
                               ("0", "8", "8"), ("0", "2", "1500")):
        code, out = run(capsys, "verify", "--suite", suite, "--seed", seed,
                        "--max-m", max_m, "--max-n", max_n)
        assert code == 0, out
        m = re.fullmatch(rf"{suite}: (\d+) cases(?:, (\d+) draws? skipped)?, pass\n", out)
        assert m, out
        assert int(m.group(1)) + int(m.group(2) or 0) == draws
    # seed 0 gives up on half of the duality draws
    code, out = run(capsys, "verify", "--suite", "duality", "--seed", "0")
    assert out == "duality: 4 cases, 4 draws skipped, pass\n"


def test_verify_certificate_skips_long_certificates(capsys):
    # the default sweep's certificates (length <= 9) are all expanded
    code, out = run(capsys, "verify", "--suite", "certificate")
    assert code == 0 and out == "certificate: 8 cases, pass\n"
    # larger towers: certificates longer than the cap count as skipped draws
    code, out = run(capsys, "verify", "--suite", "certificate", "--max-m", "5",
                    "--max-n", "5", "--seed", "2")
    assert code == 0 and out == "certificate: 6 cases, 2 draws skipped, pass\n"


def test_ring_and_betti_build_no_tower_algebra(capsys, monkeypatch):
    """A tower's Betti numbers are the closed-form h-vector of its polytope."""
    from pathlib import Path

    from smallcover import bounds, cli

    def refuse(self):
        raise AssertionError("algebra built")

    monkeypatch.setattr(cohomology.QuotientRing, "algebra", refuse)
    path = str(Path(__file__).parent / "golden" / "twisted_3x8.problem.json")
    for command in ("ring", "betti"):
        code, out = run(capsys, command, path, "--format", "json")
        assert code == 0 and len(json.loads(out)["betti"]) == 25
    ring = bounds.manifold_ring(cli._manifold(cli._load(path)))
    assert sum(ring.betti) == ring.dim == 4 ** 8 and ring._alg is None


def _twisted_tower(tmp_path, name, dims):
    m = len(dims)
    return write(tmp_path, name, {
        "polytope": {"type": "product_of_simplices", "dims": list(dims)},
        "characteristic": {"type": "bott_matrix", "dims": list(dims),
                           "beta": {"2,1": "101", f"{m},3": "110"}},
        "dold": {"p": [1, 2]},
    })


def test_tower_commands_never_build_vertices(capsys, tmp_path, monkeypatch):
    """Nor do they expand the tower certificate's product."""
    from smallcover import charfun, invariants, polytope

    def refuse(*args):
        raise AssertionError("product vertices built or certificate expanded")

    monkeypatch.setattr(charfun, "product_vertices", refuse)
    monkeypatch.setattr(polytope, "product_vertices", refuse)
    monkeypatch.setattr(invariants, "verify_certificate", refuse)
    path = _twisted_tower(tmp_path, "t38.json", (3,) * 8)
    for argv in (["bounds", path, "--invariant", "all"], ["dold", path], ["zcl", path],
                 ["zcl", path, "--certificate-only"]):
        code, out = run(capsys, *argv, "--format", "json")
        assert code == 0, argv
        json.loads(out)


def test_zcl_and_dold_on_a_twelve_block_tower(capsys, tmp_path):
    path = _twisted_tower(tmp_path, "t312.json", (3,) * 12)
    code, out = run(capsys, "zcl", path, "--format", "json")
    data = json.loads(out)
    assert code == 0 and (data["lo"], data["hi"]) == (36, 72)
    code, out = run(capsys, "dold", path, "--format", "json")
    assert code == 0 and len(json.loads(out)["reports"]) == 3


def test_valid_facet_vectors_past_the_vertex_cap(capsys, tmp_path, monkeypatch):
    """A valid twisted (3,)x9 assignment as facet vectors: the block peel
    accepts it, so no command builds the 262 144 vertices."""
    from smallcover import charfun, polytope

    def refuse(*args):
        raise AssertionError("product vertices built")

    dims = (3,) * 9
    B = charfun.BottMatrix.make(dims, {(2, 1): (1, 0, 1), (9, 3): (1, 1, 0)})
    path = write(tmp_path, "t39.json", {
        "polytope": {"type": "product_of_simplices", "dims": list(dims)},
        "characteristic": {"type": "facet_vectors", "vectors":
                           ["".join(map(str, v)) for v in ref.from_bott(dims, B)]},
    })
    monkeypatch.setattr(charfun, "product_vertices", refuse)
    monkeypatch.setattr(polytope, "product_vertices", refuse)
    code, out = run(capsys, "validate", path)
    assert code == 0 and out.strip() == "valid"
    code, out = run(capsys, "bounds", path, "--format", "json")
    reports = {r["invariant"]: (r["lo"], r["hi"]) for r in json.loads(out)["reports"]}
    assert code == 0 and reports["cat"] == (28, 28)
    code, out = run(capsys, "zcl", path, "--format", "json")
    data = json.loads(out)
    assert code == 0 and (data["lo"], data["hi"]) == (27, 54)
    assert data["lo_source"] == "tensor power certificate"


def test_vertex_cap_exit_2(capsys, tmp_path):
    n = 27  # (3,)x9: 262 144 vertices
    path = write(tmp_path, "big.json", {
        "polytope": {"type": "product_of_simplices", "dims": [3] * 9},
        "characteristic": {"type": "facet_vectors", "vectors": ["1" * n] * 36},
    })
    assert_malformed(capsys, ["validate", path])


@pytest.mark.parametrize("shape", [
    {"type": "polygon", "edges": 300000},
    {"type": "explicit", "n": 0, "facet_count": 3000000, "vertices": []},
    {"type": "product_of_simplices", "dims": [20000]},
], ids=["polygon", "explicit", "product-dimension"])
def test_oversized_polytope_rejected_before_allocation(capsys, tmp_path, shape):
    path = write(tmp_path, "huge.json", {
        "polytope": shape,
        "characteristic": {"type": "facet_vectors", "vectors": ["10", "01", "11"]},
    })
    start = time.perf_counter()
    assert_malformed(capsys, ["validate", path])
    assert time.perf_counter() - start < 0.5


def _simplex(tmp_path, n):
    """The explicit n-simplex with the facet vectors of RP^n."""
    return write(tmp_path, f"simplex{n}.json", {
        "polytope": {"type": "explicit", "n": n, "facet_count": n + 1,
                     "vertices": [[f for f in range(n + 1) if f != o] for o in range(n + 1)]},
        "characteristic": {"type": "facet_vectors", "vectors":
                           ["".join("1" if c == i else "0" for c in range(n)) for i in range(n)]
                           + ["1" * n]},
    })


def test_explicit_f_vector_exits_2_before_enumerating(capsys, tmp_path):
    start = time.perf_counter()
    err = assert_malformed(capsys, ["betti", _simplex(tmp_path, 24)])
    assert time.perf_counter() - start < 0.5
    assert "25 vertices * 2^24 facet subsets exceed the 262144" in err
    code, out = run(capsys, "betti", _simplex(tmp_path, 6))
    assert code == 0 and out == "1 1 1 1 1 1 1\n"


def test_explicit_ring_exits_2_before_enumerating(capsys, tmp_path):
    # the ring's minimal non-faces read the f-vector's bounded face table
    start = time.perf_counter()
    err = assert_malformed(capsys, ["ring", _simplex(tmp_path, 24)])
    assert time.perf_counter() - start < 0.5
    assert "25 vertices * 2^24 facet subsets exceed the 262144" in err
    code, out = run(capsys, "ring", _simplex(tmp_path, 6))
    assert code == 0 and "z1^7" in out


def test_ring_on_a_large_polygon_exits_2_before_listing(capsys, tmp_path, monkeypatch):
    k = 20000
    path = write(tmp_path, "gon.json", {
        "polytope": {"type": "polygon", "edges": k},
        "characteristic": {"type": "facet_vectors", "vectors": ["10", "01"] * (k // 2)},
    })
    eliminations = []
    column_rref = gf2.column_rref
    monkeypatch.setattr(gf2, "column_rref",
                        lambda columns: eliminations.append(1) or column_rref(columns))
    start = time.perf_counter()
    err = assert_malformed(capsys, ["ring", path])
    assert time.perf_counter() - start < 0.5
    assert "20000-gon's ring has 199970000 relations" in err
    # the cap refuses before the linear relations are eliminated
    assert not eliminations
    # only the ring lists the relations
    code, out = run(capsys, "betti", path)
    assert code == 0 and out == "1 19998 1\n"


def test_ring_json_on_the_300_gon_is_what_json_dumps_writes(capsys, tmp_path):
    path = write(tmp_path, "gon.json", {
        "polytope": {"type": "polygon", "edges": 300},
        "characteristic": {"type": "facet_vectors", "vectors": ["10", "01"] * 150},
    })
    code, out = run(capsys, "ring", path, "--format", "json")
    payload = json.loads(out)
    assert code == 0 and len(payload["relations"]) > 40000
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _rp_facet_vectors(tmp_path, n):
    vectors = ["".join("1" if c == i else "0" for c in range(n)) for i in range(n)]
    return write(tmp_path, f"rp{n}.json", {
        "polytope": {"type": "product_of_simplices", "dims": [n]},
        "characteristic": {"type": "facet_vectors", "vectors": vectors + ["1" * n]},
    })


def test_zcl_and_bounds_share_one_route(capsys, tmp_path):
    path = _rp_facet_vectors(tmp_path, 16)
    code, out = run(capsys, "zcl", path, "--format", "json")
    zcl = json.loads(out)
    assert code == 0 and (zcl["lo"], zcl["hi"]) == (31, 32)
    # the peeled tower's certificate ties with the connected-sum rule and comes first
    assert zcl["lo_source"] == "tensor power certificate"
    code, out = run(capsys, "bounds", path, "--format", "json")
    reports = {r["invariant"]: r for r in json.loads(out)["reports"]}
    assert (reports["TC"]["lo"], reports["TC"]["hi"]) == (zcl["lo"] + 1, 33)
    assert reports["TC_S"]["lo"] == zcl["lo"] + 2


def test_zcl_names_the_exact_upper_end(capsys, tmp_path):
    code, out = run(capsys, "zcl", _rp_facet_vectors(tmp_path, 2), "--format", "json")
    data = json.loads(out)
    assert (data["lo"], data["hi"]) == (3, 3)
    assert data["hi_source"] == "exhaustive kernel power search"
