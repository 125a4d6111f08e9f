import json

import pytest

from switchlab.cli import main
from switchlab.graphs import graph_from_json, graph_to_json, new_graph
from switchlab.randomlab import random_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_generate_deterministic(capsys):
    code1, out1 = run_cli(capsys, "generate", "--m", "3", "--n", "2", "--seed", "5")
    code2, out2 = run_cli(capsys, "generate", "--m", "3", "--n", "2", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2
    g = graph_from_json(json.loads(out1))
    assert g == random_graph(3, 2, 5)


def test_generate_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--m", "2", "--n", "2"])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_chain(capsys):
    code, data = run_json(capsys, "chain", "--seed", "7", "--count", "5")
    assert code == 0
    sizes = [(g["m"], g["n"]) for g in data["graphs"]]
    assert sizes == [(1, 0), (1, 1), (2, 1), (2, 2), (3, 2)]


def test_check_theta_exact(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph_to_json(new_graph(3, 3, [[1] * 3] * 3))))
    code, data = run_json(capsys, "check-theta", "--input", str(path), "--k", "1")
    assert code == 0
    assert data["holds"] is False
    assert data["mode"] == "exact"
    assert data["counterexample"]["side"] in ("L", "R")


def test_check_theta_sampled_needs_seed(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph_to_json(new_graph(2, 2, [[1, 2], [3, 1]]))))
    code, data = run_json(
        capsys, "check-theta", "--input", str(path), "--k", "1", "--sampled"
    )
    assert code == 1
    assert "seed" in data["error"]


def test_check_theta_budget_error(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph_to_json(random_graph(40, 40, 1))))
    code, data = run_json(capsys, "check-theta", "--input", str(path), "--k", "2")
    assert code == 1
    assert "budget" in data["error"]


def test_malformed_graph_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, data = run_json(capsys, "check-theta", "--input", str(path), "--k", "1")
    assert code == 1
    assert "error" in data


def test_edge_kill_and_apply_word(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"m": 2, "n": 2, "colors": [[1, 1], [1, 1]]}))
    code, data = run_json(
        capsys, "edge-kill", "--x", "0", "--y", "0", "--f", "(123)", "--g", "(12)",
        "--input", str(gpath),
    )
    assert code == 0
    assert len(data["word"]) == 4
    assert data["result"]["colors"] == [[3, 1], [1, 1]]

    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps(data["word"]))
    code, applied = run_json(
        capsys, "apply-word", "--input", str(gpath), "--word", str(wpath)
    )
    assert code == 0
    assert applied == data["result"]


def test_edge_kill_commuting_pair_is_domain_error(capsys):
    code, data = run_json(
        capsys, "edge-kill", "--x", "0", "--y", "0", "--f", "(123)", "--g", "(132)"
    )
    assert code == 1
    assert "commute" in data["error"]


def test_monochromatize(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(graph_to_json(random_graph(3, 3, 7))))
    code, data = run_json(
        capsys, "monochromatize", "--input", str(gpath), "--target", "1"
    )
    assert code == 0
    assert data["result"]["colors"] == [[1, 1, 1]] * 3


def test_orbits(capsys):
    code, data = run_json(
        capsys, "orbits", "--m", "2", "--n", "2", "--group", "Aut"
    )
    assert code == 0
    assert data["orbit_count"] == 27
    code, data = run_json(
        capsys, "orbits", "--m", "2", "--n", "2", "--group", "Sym_lr"
    )
    assert code == 0
    assert data["orbit_count"] == 1


def test_orbits_unknown_group(capsys):
    code, data = run_json(capsys, "orbits", "--m", "2", "--n", "2", "--group", "Nope")
    assert code == 1
    assert "unknown group" in data["error"]


def test_orbits_budget(capsys):
    code, data = run_json(
        capsys, "orbits", "--m", "4", "--n", "4", "--group", "Aut", "--budget", "12"
    )
    assert code == 1
    assert "budget" in data["error"]


def test_orbits_memory_cap(capsys):
    # within the m*n budget, above the byte cap: an error, not a 5 GiB allocation
    code, out = run_cli(
        capsys, "orbits", "--group", "Aut", "--m", "4", "--n", "4", "--budget", "16"
    )
    assert code == 1
    assert out.count("\n") == 1
    data = json.loads(out)
    assert list(data) == ["error"] and "memory cap" in data["error"]


def test_distinguish(capsys):
    code, data = run_json(capsys, "distinguish", "--m", "2", "--n", "2")
    assert code == 0
    assert {entry["name"] for entry in data["groups"]} >= {"Aut", "Sym_lr"}
    assert isinstance(data["collisions"], list)


def test_sfsp_bound(capsys):
    code, data = run_json(capsys, "sfsp-bound", "--k", "1", "--n", "8")
    assert code == 0
    assert data["value"] == pytest.approx(46.2222222, rel=1e-6)
    assert data["clamped"] == 1.0
    code, data = run_json(capsys, "sfsp-bound", "--k", "1", "--n", "4")
    assert code == 0
    assert data["value"] is None and data["clamped"] == 1.0
    # the binomial product leaves the float range: the bound is above 1
    code, data = run_json(capsys, "sfsp-bound", "--k", "100", "--n", "1000000")
    assert code == 0
    assert data == {"k": 100, "n": 1000000, "value": None, "clamped": 1.0}


def test_sfsp_estimate(capsys):
    code, data = run_json(
        capsys, "sfsp-estimate", "--n", "8", "--k", "1", "--trials", "50", "--seed", "3"
    )
    assert code == 0
    assert set(data) == {
        "n", "k", "failure_rate", "half_width", "bound", "clamped_bound", "mode",
    }
    assert data["failure_rate"] <= data["clamped_bound"]


def test_verify_lemmas_subset(capsys):
    code, data = run_json(
        capsys, "verify-lemmas", "--only", "s3-table-fidelity,collapse-trichotomy"
    )
    assert code == 0
    assert data["all_passed"] is True
    assert [c["name"] for c in data["checks"]] == ["s3-table-fidelity", "collapse-trichotomy"]
    assert all(c["passed"] for c in data["checks"])


def test_verify_lemmas_unknown_check(capsys):
    code, data = run_json(capsys, "verify-lemmas", "--only", "bogus")
    assert code == 1
    assert "unknown check" in data["error"]
