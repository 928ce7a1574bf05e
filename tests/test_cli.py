import json
import re

import pytest

from smallcover.bounds import BoundReport
from smallcover.cli import main


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


def test_bounds_involution_flag(capsys, tmp_path):
    path = write(tmp_path, "noinv.json", {
        "polytope": {"type": "polygon", "edges": 4},
        "characteristic": {"type": "facet_vectors",
                           "vectors": ["10", "01", "10", "11"]},
    })
    code, out = run(capsys, "bounds", path, "--invariant", "cateq",
                    "--involution", "10")
    assert code == 0 and "cat_eq ∈ [4,4]" in out


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


def test_exact_budget_env(capsys, klein, monkeypatch):
    monkeypatch.setenv("SMALLCOVER_EXACT_BUDGET", "1")
    code, out = run(capsys, "zcl", klein, "--format", "json")
    data = json.loads(out)
    # budget 1 rules out the exact search; the generic route stays sound
    assert data["lo"] <= 3 <= data["hi"]
    assert data["lo_source"] != "exhaustive kernel power search"


def test_verify_suites(capsys):
    code, out = run(capsys, "verify", "--suite", "lemma", "--max-m", "2")
    assert code == 0 and "lemma" in out and "pass" in out
    code, out = run(capsys, "verify", "--suite", "binom")
    assert code == 0


def test_verify_fault_injection(capsys):
    code, out = run(capsys, "verify", "--suite", "lemma", "--max-m", "1",
                    "--inject-fault")
    assert code == 1 and "FAIL" in out


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


def test_bad_budget_env_exit_2(capsys, klein, monkeypatch):
    monkeypatch.setenv("SMALLCOVER_EXACT_BUDGET", "abc")
    assert_malformed(capsys, ["zcl", klein])


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


@pytest.mark.parametrize("suite, draws", [("betti", 16), ("duality", 8)])
def test_verify_reports_skipped_draws(capsys, suite, draws):
    for seed in ("0", "1", "2"):
        code, out = run(capsys, "verify", "--suite", suite, "--seed", seed)
        assert code == 0, out
        m = re.fullmatch(rf"{suite}: (\d+) cases(?:, (\d+) draws? skipped)?, pass\n", out)
        assert m, out
        assert int(m.group(1)) + int(m.group(2) or 0) == draws
    # seed 0 gives up on half of the duality draws
    code, out = run(capsys, "verify", "--suite", "duality", "--seed", "0")
    assert out == "duality: 4 cases, 4 draws skipped, pass\n"
