import json

import pytest

from switchlab.cli import main
from switchlab.graphs import graph_from_json, graph_to_json, new_graph
from switchlab.randomlab import random_graph

from conftest import shifted_cubic_graph


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


@pytest.mark.parametrize(
    "argv",
    [
        ("orbits", "--m", "-2", "--n", "-2", "--group", "Aut"),
        ("orbits", "--m", "-1", "--n", "2", "--group", "Aut"),
        ("orbits", "--m", "2", "--n", "-3", "--group", "Sym_lr"),
        ("distinguish", "--m", "-2", "--n", "-2"),
    ],
)
def test_orbits_negative_sides(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert out.count("\n") == 1
    data = json.loads(out)
    assert list(data) == ["error"] and "nonnegative" in data["error"]


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


def _cubic_with_first_column(q, color):
    rows = shifted_cubic_graph(q).colors
    return new_graph(q, q, [[color] + list(row[1:]) for row in rows])


GOLDEN_GRAPHS = {
    "cubic97": lambda: shifted_cubic_graph(97),
    "cubic97c1": lambda: _cubic_with_first_column(97, 1),
    "cubic109c3": lambda: _cubic_with_first_column(109, 3),
    "rand40": lambda: random_graph(40, 40, 3),
    "rand60x55": lambda: random_graph(60, 55, 8),
    "rand70": lambda: random_graph(70, 70, 25),
    "rand9x8": lambda: random_graph(9, 8, 11),
    "rand13": lambda: random_graph(13, 13, 55),
    "rand7x6": lambda: random_graph(7, 6, 2),
    "empty0x5": lambda: random_graph(0, 5, 1),
}

# stdout and exit code of each invocation, recorded before the extension
# check moved to packed witness masks; {name} is a GOLDEN_GRAPHS file
GOLDEN = [
    ("check-theta --input {cubic97} --k 1 --budget 2000000", 0,
     '{"checked_left": 912868, "checked_right": 912868, "counterexample": null, "holds": true, "k": 1, "mode": "exact"}\n'),
    ("check-theta --input {cubic97} --k 2", 1,
     '{"error": "94926337396 set triples exceed budget 200000; use sampled mode"}\n'),
    ("check-theta --input {rand40} --k 1", 0,
     '{"checked_left": 142, "checked_right": 0, "counterexample": {"sets": [[], [0], [21]], "side": "L"}, "holds": false, "k": 1, "mode": "exact"}\n'),
    ("check-theta --input {rand60x55} --k 1", 1,
     '{"error": "216121 set triples exceed budget 200000; use sampled mode"}\n'),
    ("check-theta --input {rand9x8} --k 2", 0,
     '{"checked_left": 18, "checked_right": 0, "counterexample": {"sets": [[], [7], []], "side": "L"}, "holds": false, "k": 2, "mode": "exact"}\n'),
    ("check-theta --input {rand70} --k 1 --budget 400000", 0,
     '{"checked_left": 14722, "checked_right": 0, "counterexample": {"sets": [[0], [1], [22]], "side": "L"}, "holds": false, "k": 1, "mode": "exact"}\n'),
    ("check-theta --input {rand13} --k 2 --budget 1000000", 0,
     '{"checked_left": 80, "checked_right": 0, "counterexample": {"sets": [[], [], [3, 10]], "side": "L"}, "holds": false, "k": 2, "mode": "exact"}\n'),
    ("check-theta --input {cubic97c1} --k 1 --budget 2000000", 0,
     '{"checked_left": 37451, "checked_right": 0, "counterexample": {"sets": [[1], [2], [9]], "side": "L"}, "holds": false, "k": 1, "mode": "exact"}\n'),
    ("check-theta --input {cubic109c3} --k 1 --budget 2000000", 0,
     '{"checked_left": 1295248, "checked_right": 111, "counterexample": {"sets": [[], [0], []], "side": "R"}, "holds": false, "k": 1, "mode": "exact"}\n'),
    ("check-theta --input {rand7x6} --k 3", 0,
     '{"checked_left": 14, "checked_right": 0, "counterexample": {"sets": [[], [5], []], "side": "L"}, "holds": false, "k": 3, "mode": "exact"}\n'),
    ("check-theta --input {empty0x5} --k 2", 0,
     '{"checked_left": 1, "checked_right": 1, "counterexample": {"sets": [[], [], []], "side": "R"}, "holds": false, "k": 2, "mode": "exact"}\n'),
    ("check-theta --input {rand40} --k 1 --sampled --trials 500 --seed 3", 0,
     '{"k": 1, "mode": "sampled", "trials": 500, "violation_rate": 0.226, "violations": 113}\n'),
    ("check-theta --input {cubic97} --k 1 --sampled --trials 500 --seed 3", 0,
     '{"k": 1, "mode": "sampled", "trials": 500, "violation_rate": 0.0, "violations": 0}\n'),
    ("check-theta --input {rand9x8} --k 2 --sampled --trials 500 --seed 3", 0,
     '{"k": 2, "mode": "sampled", "trials": 500, "violation_rate": 0.92, "violations": 460}\n'),
    ("check-theta --input {empty0x5} --k 3 --sampled --trials 200 --seed 1", 0,
     '{"k": 3, "mode": "sampled", "trials": 200, "violation_rate": 1.0, "violations": 200}\n'),
    ("sfsp-estimate --n 24 --k 1 --trials 200 --seed 5", 0,
     '{"bound": 1879.7070971444125, "clamped_bound": 1.0, "failure_rate": 1.0, "half_width": 0.0, "k": 1, "mode": "exact", "n": 24}\n'),
    ("sfsp-estimate --n 120 --k 2 --trials 3 --seed 1", 0,
     '{"bound": 8367674735.810743, "clamped_bound": 1.0, "failure_rate": 1.0, "half_width": 0.0, "k": 2, "mode": "sampled", "n": 120}\n'),
]


@pytest.mark.parametrize("command, code, stdout", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_golden_stdout(tmp_path, capsys, command, code, stdout):
    paths = {}
    for name in GOLDEN_GRAPHS:
        if "{" + name + "}" in command:
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(graph_to_json(GOLDEN_GRAPHS[name]())))
    assert run_cli(capsys, *command.format(**paths).split()) == (code, stdout)
