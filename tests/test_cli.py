import hashlib
import io
import json
import os
import runpy
import signal
import subprocess
import sys
import time
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from switchlab import verify as verify_mod
from switchlab.cli import main
from switchlab.graphs import graph_from_json, graph_to_json, new_graph
from switchlab.orbits import enumerate_candidate_groups, orbit_partition
from switchlab.randomlab import RANDOM_GRAPH_CELL_CAP, random_graph

from conftest import graphs, shifted_cubic_graph


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


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--trials", "5"], "--trials and --seed require --sampled"),
        (["--seed", "3"], "--trials and --seed require --sampled"),
        (["--sampled", "--seed", "3", "--budget", "1"], "--budget applies to the exact check, not --sampled"),
        (["--sampled", "--budget", "1"], "--budget applies to the exact check, not --sampled"),
    ],
    ids=["trials", "seed", "sampled-budget", "sampled-budget-no-seed"],
)
def test_check_theta_refuses_the_other_modes_options(tmp_path, capsys, extra, message):
    # an option of the mode not run is refused, not silently dropped
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph_to_json(random_graph(40, 40, 1))))
    code, out = run_cli(capsys, "check-theta", "--input", str(path), "--k", "1", *extra)
    assert (code, out) == (1, json.dumps({"error": message}) + "\n")


def test_check_theta_sampled_is_the_only_mode_option(tmp_path, capsys):
    # exact mode is the default and has no flag of its own
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph_to_json(new_graph(2, 2, [[1, 2], [3, 1]]))))
    with pytest.raises(SystemExit) as exc:
        main(["check-theta", "--input", str(path), "--k", "1", "--exact"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


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


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "--m", "200000", "--n", "200000", "--seed", "1"),
        ("chain", "--seed", "1", "--count", "100000000"),
        ("sfsp-estimate", "--n", "1000000000", "--k", "1", "--trials", "1", "--seed", "1"),
        # 36 bytes of JSON: an empty side counts as one cell per vertex of the other
        ("check-theta", "--input", "{empty}", "--k", "1", "--sampled", "--trials", "10", "--seed", "1"),
        ("check-theta", "--input", "{empty}", "--k", "1", "--budget", str(10**30)),
    ],
)
def test_random_graph_cap_errors(tmp_path, capsys, argv):
    # refused before any graph is built, not after minutes or a MemoryError;
    # the extension checks refuse a graph past the cap before any word of it
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"m": 0, "n": RANDOM_GRAPH_CELL_CAP + 1, "colors": []}))
    code, out = run_cli(capsys, *(arg.format(empty=path) for arg in argv))
    # one wording for random graphs and graphs loaded from --input alike
    assert (code, out) == (1, '{"error": "graphs of more than 4194304 cells exceed the cap"}\n')


def test_distinguish(capsys):
    code, data = run_json(capsys, "distinguish", "--m", "2", "--n", "2")
    assert code == 0
    assert {entry["name"] for entry in data["groups"]} >= {"Aut", "Sym_lr"}
    assert isinstance(data["collisions"], list)


# Runs the CLI with argv under an address-space limit set in this child only,
# and writes the peak RSS in KiB of the process that ran it as the last stderr
# line.  That process is forked from the child after its imports: a process
# started by exec keeps in RUSAGE_SELF the peak of the memory image it
# replaced, which for a child of pytest is the pytest process's.
_MEASURED_CHILD = """
import os, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from switchlab.cli import main
pid = os.fork()
if pid == 0:
    code = 1
    try:
        code = main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr, flush=True)
        os._exit(code)
sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


def _child_peak_kib(*argv, timeout=60):
    # the child leads a new process group, so a timeout kills the forked,
    # measured process with it, not only the parent that waits for it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    with subprocess.Popen([sys.executable, "-c", _MEASURED_CHILD, *argv], env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as child:
        try:
            out, err = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise
    assert child.returncode == 0, err
    json.loads(out)  # one JSON document
    return int(err.splitlines()[-1])


def test_measured_child_timeout_kills_its_process_group(monkeypatch):
    # 100,000 sfsp-estimate trials run for several seconds (15 s on a 2-vCPU
    # host) in the forked, measured process; the timeout falls after the
    # fork, and no process of the child's group, which the fork shares,
    # outlives it
    groups = []
    popen = subprocess.Popen

    def spy(*args, **kwargs):
        child = popen(*args, **kwargs)
        groups.append((child.pid, os.getpgid(child.pid)))
        return child

    monkeypatch.setattr(subprocess, "Popen", spy)
    with pytest.raises(subprocess.TimeoutExpired):
        _child_peak_kib("sfsp-estimate", "--n", "24", "--k", "1", "--trials", "100000", "--seed", "1",
                        timeout=1.5)
    (pid, pgid), = groups
    assert pgid == pid != os.getpgrp()
    # a killed process can still be signalled until it is reaped
    deadline = time.monotonic() + 10
    with pytest.raises(ProcessLookupError):
        while time.monotonic() < deadline:
            os.killpg(pgid, 0)
            time.sleep(0.05)


def test_distinguish_at_the_default_budget_stays_within_its_stated_working_set():
    # 3^12 ids at 32 bytes each is the working set _check_budget states for
    # one engine call; distinguish holds 16 partitions, so at the cap's edge
    # of the default budget it must stay within that too (its 16 dense int32
    # label arrays once took 39 MiB over a bare child)
    bare = _child_peak_kib("orbits", "--m", "1", "--n", "1", "--group", "Aut")
    peak = _child_peak_kib("distinguish", "--m", "3", "--n", "4")
    assert (peak - bare) * 1024 <= 32 * 3**12


@pytest.mark.parametrize("argv", [("orbits", "--m", "0", "--n", "3000000", "--group", "Aut"),
                                  ("distinguish", "--m", "0", "--n", "3000000")])
def test_an_empty_side_builds_nothing_sized_by_the_other(capsys, argv):
    # with no edges there is one coloring and every move is the identity, so
    # none is built: the other side's n - 1 identity transpositions (and n
    # switches per sigma) once took 1.2 GiB and 40 s for orbits
    start = time.monotonic()
    peak = _child_peak_kib(*argv)
    assert peak <= 100 * 1024 and time.monotonic() - start < 2
    code, data = run_json(capsys, *argv)
    assert code == 0 and {g["orbit_count"] for g in data.get("groups", [data])} == {1}


def test_check_theta_full_exact_scan_stays_within_16_mib(tmp_path):
    # a holding 500x500 graph at k = 1: every block runs, the large ones
    # packed; the scan keeps witness words, their byte-major copies and OR
    # tables per side (the loose row, kept beside the tighter one below)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph_to_json(random_graph(500, 500, 11))))
    bare = _child_peak_kib("orbits", "--m", "1", "--n", "1", "--group", "Aut")
    peak = _child_peak_kib("check-theta", "--input", str(path), "--k", "1", "--budget", str(10**12))
    assert peak - bare <= 16 * 1024


def test_check_theta_full_exact_scan_stays_within_8_mib(tmp_path):
    # measured at 5.4 MiB over a bare child (three runs, 2-vCPU host), with
    # 2.6 MiB of headroom; the float32 planes and their GEMMs took 11.7 MiB
    # over it and fail this row
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph_to_json(random_graph(500, 500, 11))))
    bare = _child_peak_kib("orbits", "--m", "1", "--n", "1", "--group", "Aut")
    peak = _child_peak_kib("check-theta", "--input", str(path), "--k", "1", "--budget", str(10**12))
    assert peak - bare <= 8 * 1024


def test_check_theta_sampled_on_1024_squared_stays_within_48_mib(tmp_path):
    # the loose row, kept beside the tighter one below: the check's packed
    # witness words are 0.75 MiB for both sides of a 1024x1024 graph, of
    # about 12 MiB over a bare child with the graph's JSON read
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph_to_json(random_graph(1024, 1024, 11))))
    bare = _child_peak_kib("orbits", "--m", "1", "--n", "1", "--group", "Aut")
    peak = _child_peak_kib("check-theta", "--input", str(path), "--k", "1", "--sampled",
                           "--trials", "1000", "--seed", "1")
    assert peak - bare <= 48 * 1024


def test_check_theta_sampled_on_1024_squared_stays_within_16_mib(tmp_path):
    # measured at 12.0 MiB over a bare child (three runs, 2-vCPU host), with
    # 4 MiB of headroom; float32 planes for the sampled check would take
    # 34.5 MiB over it and fail this row
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph_to_json(random_graph(1024, 1024, 11))))
    bare = _child_peak_kib("orbits", "--m", "1", "--n", "1", "--group", "Aut")
    peak = _child_peak_kib("check-theta", "--input", str(path), "--k", "1", "--sampled",
                           "--trials", "1000", "--seed", "1")
    assert peak - bare <= 16 * 1024


def test_distinguish_refuses_a_non_square_swap_at_once(capsys):
    # all 16 side-preserving partitions at 2x7 took 1.3 s and 345 MiB
    # before the swap was refused
    start = time.perf_counter()
    code, out = run_cli(capsys, "distinguish", "--m", "2", "--n", "7", "--budget", "14", "--with-swap")
    assert time.perf_counter() - start < 0.1
    assert (code, out) == (1, '{"error": "side swap needs square dimensions"}\n')


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


@pytest.mark.parametrize("stats", [[], ["--stats"]])
def test_verify_lemmas_failing_check_exits_1(monkeypatch, capsys, stats):
    monkeypatch.setattr(verify_mod, "collapse_witness", lambda c1, c2: None)
    code = main(["verify-lemmas", "--only", "collapse-trichotomy", *stats])
    out, err = capsys.readouterr()
    assert code == 1
    data = json.loads(out)
    assert data["all_passed"] is False
    assert [(c["name"], c["passed"]) for c in data["checks"]] == [("collapse-trichotomy", False)]
    if stats:
        assert [c["name"] for c in json.loads(err)["checks"]] == ["collapse-trichotomy"]
    else:
        assert err == ""


def test_verify_lemmas_unknown_check(capsys):
    code, data = run_json(capsys, "verify-lemmas", "--only", "bogus")
    assert code == 1
    assert "unknown check" in data["error"]


@pytest.mark.parametrize("only", ["", ","])
def test_verify_lemmas_empty_check_name_is_unknown(capsys, only):
    # an explicitly empty list names the empty check and runs none
    code, out = run_cli(capsys, "verify-lemmas", "--only", only)
    assert (code, out) == (1, json.dumps({"error": "unknown check ''"}) + "\n")


#: A JSON document nested past the interpreter's recursion limit.
_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("argv", [
    ["check-theta", "--input", "{deep}", "--k", "1"],
    ["check-theta", "--input", "-", "--k", "1"],
    ["apply-word", "--input", "{deep}", "--word", "{word}"],
    ["apply-word", "--input", "{graph}", "--word", "{deep}"],
    ["apply-word", "--input", "{graph}", "--word", "-"],
    ["monochromatize", "--input", "{deep}", "--target", "1"],
    ["edge-kill", "--x", "0", "--y", "0", "--f", "(12)", "--g", "(13)", "--input", "{deep}"],
])
def test_deeply_nested_json_is_a_domain_error(tmp_path, capsys, monkeypatch, argv):
    # from a file or from stdin: one error document, nothing on stderr
    paths = {name: tmp_path / f"{name}.json" for name in ("deep", "graph", "word")}
    paths["deep"].write_text(_DEEP)
    paths["graph"].write_text(json.dumps(graph_to_json(new_graph(1, 1, [[1]]))))
    paths["word"].write_text("[]")
    monkeypatch.setattr(sys, "stdin", io.StringIO(_DEEP))
    code = main([arg.format(**paths) for arg in argv])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, json.dumps({"error": "JSON document nested too deeply"}) + "\n", "")


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
    # past the exact check's budget sfsp-estimate refuses before drawing a
    # graph; 116 is the last size k = 1 admits
    ("sfsp-estimate --n 120 --k 2 --trials 3 --seed 1", 1,
     '{"error": "5024453161 set triples exceed budget 200000"}\n'),
    ("sfsp-estimate --n 600 --k 1 --trials 20 --seed 1", 1,
     '{"error": "27000601 set triples exceed budget 200000"}\n'),
    ("sfsp-estimate --n 116 --k 1 --trials 20 --seed 1", 0,
     '{"bound": 46456.659845622264, "clamped_bound": 1.0, "failure_rate": 1.0, "half_width": 0.0, "k": 1, "mode": "exact", "n": 116}\n'),
    # recorded before switch words were applied in place on one copy and
    # before sfsp_bound screened out bounds below the smallest float; long
    # outputs are pinned by the SHA-256 of stdout
    ("apply-word --input {rand7x6} --word {mixed_word}", 0,
     '{"colors": [[1, 2, 2, 3, 1, 3], [1, 1, 3, 1, 1, 1], [1, 1, 2, 1, 3, 3], [2, 2, 2, 2, 3, 3], [1, 2, 1, 2, 1, 1], [1, 3, 3, 2, 2, 2], [3, 2, 3, 1, 1, 1]], "m": 7, "n": 6}\n'),
    ("apply-word --input {rand7x6} --word {late_bad_word}", 1,
     '{"error": "support vertex VertexRef(side=<Side.LEFT: \'L\'>, index=7) not in K_{7,6}"}\n'),
    ("apply-word --input {rand7x6} --word {empty_word}", 0,
     '{"colors": [[2, 2, 2, 1, 3, 3], [1, 2, 3, 1, 2, 3], [1, 2, 3, 1, 1, 2], [1, 3, 3, 1, 2, 1], [3, 3, 1, 1, 1, 2], [1, 1, 1, 3, 3, 3], [3, 1, 3, 1, 2, 3]], "m": 7, "n": 6}\n'),
    ("apply-word --input {empty0x5} --word {right_word}", 0,
     '{"colors": [], "m": 0, "n": 5}\n'),
    ("edge-kill --x 2 --y 5 --f (123) --g (12) --input {rand7x6}", 0,
     '{"result": {"colors": [[2, 2, 2, 1, 3, 3], [1, 2, 3, 1, 2, 3], [1, 2, 3, 1, 1, 1], [1, 3, 3, 1, 2, 1], [3, 3, 1, 1, 1, 2], [1, 1, 1, 3, 3, 3], [3, 1, 3, 1, 2, 3]], "m": 7, "n": 6}, "word": [{"sigma": "(123)", "support": [{"i": 2, "side": "L"}]}, {"sigma": "(12)", "support": [{"i": 5, "side": "R"}]}, {"sigma": "(132)", "support": [{"i": 2, "side": "L"}]}, {"sigma": "(12)", "support": [{"i": 5, "side": "R"}]}]}\n'),
    ("edge-kill --x 0 --y 0 --f (13) --g (23)", 0,
     '{"word": [{"sigma": "(13)", "support": [{"i": 0, "side": "L"}]}, {"sigma": "(23)", "support": [{"i": 0, "side": "R"}]}, {"sigma": "(13)", "support": [{"i": 0, "side": "L"}]}, {"sigma": "(23)", "support": [{"i": 0, "side": "R"}]}]}\n'),
    ("edge-kill --x 7 --y 0 --f (123) --g (12) --input {rand7x6}", 1,
     '{"error": "support vertex VertexRef(side=<Side.LEFT: \'L\'>, index=7) not in K_{7,6}"}\n'),
    ("edge-kill --x 0 --y 0 --f (123) --g (132)", 1,
     '{"error": "permutations commute; the word would recolor nothing"}\n'),
    ("monochromatize --input {rand9x8} --target 2", 0,
     "sha256:4b7baf8970a8cedfeafc2f9a5243c8ef9d33c821c76d16e6537bb3d86e5360ee"),
    ("monochromatize --input {rand7x6} --target 3", 0,
     "sha256:43a985702c0c83104ad28fbb7d34d3e1b62aa05d7dd1c0598db66c62c66a7360"),
    ("monochromatize --input {empty0x5} --target 1", 0,
     '{"result": {"colors": [], "m": 0, "n": 5}, "word": []}\n'),
    ("sfsp-bound --k 300 --n {ten_to_4000}", 0,
     '{"clamped": 0.0, "k": 300, "n": 1' + "0" * 4000 + ', "value": 0.0}\n'),
    # recorded after per-check seconds moved from stdout to --stats
    ("verify-lemmas --only s3-table-fidelity,collapse-trichotomy", 0,
     '{"all_passed": true, "checks": [{"detail": "12 products, 6 subgroups, all distinct nontrivial pairs generate S3", "name": "s3-table-fidelity", "passed": true}, {"detail": "all 81x81 pairs consistent (882 collapse cases verified)", "name": "collapse-trichotomy", "passed": true}]}\n'),
    # recorded before switch words built each distinct switch once
    ("orbits --m 2 --n 3 --group S_lr^(123)", 0,
     '{"group": "S_lr^(123)", "m": 2, "n": 3, "orbit_count": 3}\n'),
    ("distinguish --m 2 --n 2 --with-swap", 0,
     "sha256:3319ba5621e4817160f4617816bddbf62d074f70ef59e34a76ae6b9330c0d109"),
    ("generate --m 4 --n 3 --seed 9", 0,
     '{"colors": [[2, 1, 2], [3, 2, 1], [2, 3, 1], [2, 3, 3]], "m": 4, "n": 3}\n'),
    ("chain --seed 9 --count 5", 0,
     '{"graphs": [{"colors": [[]], "m": 1, "n": 0}, {"colors": [[2]], "m": 1, "n": 1}, {"colors": [[2], [3]], "m": 2, "n": 1}, '
     '{"colors": [[2, 1], [3, 2]], "m": 2, "n": 2}, {"colors": [[2, 1], [3, 2], [2, 3]], "m": 3, "n": 2}], "seed": 9}\n'),
]


def _left(i):
    return {"side": "L", "i": i}


def _right(j):
    return {"side": "R", "i": j}


# word JSON files for GOLDEN: supports that mix sides, hold both endpoints of
# an edge, are empty, or (in a later switch) name a vertex outside K_{7,6}
GOLDEN_WORDS = {
    "mixed_word": [
        {"support": [_left(0), _right(0), _right(3)], "sigma": "(123)"},
        {"support": [_left(2), _left(5)], "sigma": "(12)"},
        {"support": [], "sigma": "(13)"},
        {"support": [_right(5), _left(1), _left(6)], "sigma": "(132)"},
        {"support": [_right(1), _right(2), _right(4)], "sigma": "(23)"},
    ],
    "late_bad_word": [
        {"support": [_left(0), _right(1)], "sigma": "(123)"},
        {"support": [_right(2), _left(7)], "sigma": "(12)"},
        {"support": [_left(9)], "sigma": "(13)"},
    ],
    "empty_word": [],
    "right_word": [
        {"support": [_right(4), _right(0)], "sigma": "(23)"},
        {"support": [_right(0)], "sigma": "(123)"},
    ],
}
GOLDEN_NUMBERS = {"ten_to_4000": str(10**4000)}


def _golden_argv(tmp_path, command):
    fields = dict(GOLDEN_NUMBERS)
    for name in [*GOLDEN_GRAPHS, *GOLDEN_WORDS]:
        if "{" + name + "}" in command:
            data = graph_to_json(GOLDEN_GRAPHS[name]()) if name in GOLDEN_GRAPHS else GOLDEN_WORDS[name]
            fields[name] = tmp_path / f"{name}.json"
            fields[name].write_text(json.dumps(data))
    return command.format(**fields).split()


@pytest.mark.parametrize("command, code, stdout", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_golden_stdout(tmp_path, capsys, command, code, stdout):
    got_code, got = run_cli(capsys, *_golden_argv(tmp_path, command))
    if stdout.startswith("sha256:"):
        got = "sha256:" + hashlib.sha256(got.encode()).hexdigest()
    assert (got_code, got) == (code, stdout)


# argv, exit code and stdout of scripts/sfsp_experiment.py; the first was
# recorded while the script still formatted each size's line itself rather
# than running sfsp-estimate.  A refused size prints its error line, and the
# script exits 1 after the sizes that follow it.
_SCRIPT_RATIO = '{"ratio_error": 0.02947845804988669, "ratio_final": 0.9924414210128497, "ratio_limit": 0.962962962962963}\n'
_SCRIPT_N8 = '{"bound": 46.22222222222223, "clamped_bound": 1.0, "failure_rate": 1.0, "half_width": 0.0, "k": 1, "mode": "exact", "n": 8}\n'
SCRIPT_GOLDEN = [
    ("--k 1 --sizes 8 12 --trials 20 --seed 7 --ratio-m 100", 0,
     _SCRIPT_RATIO + _SCRIPT_N8
     + '{"bound": 214.30879439109896, "clamped_bound": 1.0, "failure_rate": 1.0, "half_width": 0.0, "k": 1, "mode": "exact", "n": 12}\n'),
    ("--k 1 --sizes 8 600 8 --trials 20 --seed 7 --ratio-m 100", 1,
     _SCRIPT_RATIO + _SCRIPT_N8 + '{"error": "27000601 set triples exceed budget 200000"}\n' + _SCRIPT_N8),
]


def test_sfsp_experiment_script_stdout(capsys):
    script = runpy.run_path(str(Path(__file__).resolve().parent.parent / "scripts" / "sfsp_experiment.py"))
    for argv, code, stdout in SCRIPT_GOLDEN:
        assert (script["main"](argv.split()), *capsys.readouterr()) == (code, stdout, "")


@pytest.mark.parametrize("argv, error", [
    ("--k 0", "extension order k must be at least 1"),
    ("--k 4000", "m_max must exceed 3k"),  # the default --ratio-m 10000 is not above 3k
    ("--ratio-m 2", "m_max must exceed 3k"),
])
def test_sfsp_experiment_script_refuses_a_ratio_tail_it_cannot_form(capsys, argv, error):
    script = runpy.run_path(str(Path(__file__).resolve().parent.parent / "scripts" / "sfsp_experiment.py"))
    code = script["main"](f"--seed 7 --sizes 8 --trials 5 {argv}".split())
    assert (code, *capsys.readouterr()) == (1, json.dumps({"error": error}) + "\n", "")


STATS_GOLDEN = [g for g in GOLDEN if g[0].split()[0] in ("check-theta", "verify-lemmas", "sfsp-estimate", "orbits",
                                                         "distinguish")]


@pytest.mark.parametrize("command, code, stdout", STATS_GOLDEN, ids=[c for c, _, _ in STATS_GOLDEN])
def test_golden_stdout_with_stats(tmp_path, capsys, command, code, stdout):
    # --stats writes one JSON object to stderr and leaves stdout byte-identical
    got_code = main(_golden_argv(tmp_path, command) + ["--stats"])
    captured = capsys.readouterr()
    out = captured.out
    if stdout.startswith("sha256:"):
        out = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
    assert (got_code, out) == (code, stdout)
    if code == 1:
        assert captured.err == ""
        return
    assert captured.err.count("\n") == 1
    stats = json.loads(captured.err)
    assert stats["seconds"] >= 0
    if command.startswith("verify-lemmas"):
        names = [c["name"] for c in stats["checks"]]
        assert names == ["s3-table-fidelity", "collapse-trichotomy"]
        assert set(stats) == {"seconds", "checks"}
        assert all(c["seconds"] >= 0 for c in stats["checks"])
        return
    if command.startswith("orbits"):
        # S_lr^(123) at 2x3: 1 + 2 vertex swaps and one (123) switch per vertex
        assert set(stats) == {"seconds", "actions", "rounds", "jumps"}
        assert stats["actions"] == 8
        assert 2 <= stats["rounds"] <= stats["jumps"]
        return
    if command.startswith("distinguish"):
        # sums over the candidates' partitions, as orbit_partition counts them
        assert set(stats) == {"seconds", "actions", "rounds", "jumps"}
        parts = [orbit_partition(c.spec, 2, 2) for c in enumerate_candidate_groups(True)]
        assert len(parts) == 22
        for key in ("actions", "rounds", "jumps"):
            assert stats[key] == sum(getattr(p, key) for p in parts)
        return
    if "--sampled" in command:
        # at these sizes one block holds every draw: one packed AND per side drawn
        assert set(stats) == {"seconds", "blocks"}
        assert 1 <= stats["blocks"] <= 2
        return
    if command.startswith("sfsp-estimate"):
        assert set(stats) == {"seconds", "exact_checks", "blocks", "kernel_calls"}
        assert stats["exact_checks"] == int(command.split("--trials ")[1].split()[0])
        # every trial at n = 24 and 116 fails within its left side's pair
        # layer: one block, the sentinel row and one to three two-member cells
        assert (stats["blocks"], stats["kernel_calls"]) == {
            "sfsp-estimate --n 24 --k 1 --trials 200 --seed 5": (200, 352),
            "sfsp-estimate --n 116 --k 1 --trials 20 --seed 1": (20, 41),
        }[command]
        return
    assert set(stats) == {"seconds", "blocks", "kernel_calls", "exit_cell"}
    report = json.loads(stdout)
    sizes = None if report["holds"] else [len(s) for s in report["counterexample"]["sets"]]
    assert stats["exit_cell"] == sizes
    assert 0 < stats["blocks"] <= stats["kernel_calls"]


# Fuzzed argv: small sizes, negative values and values far past every cap or
# the float range.  Trial counts stay small: their cost is linear in the work
# asked for, which is not a defect.
_NUMBERS = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([-(10**30), -(2**63), 10**9, 2**63, 10**30, 10**400]),
)
_TRIALS = st.integers(-3, 5)
_SIDES = st.one_of(st.integers(-3, 3), st.sampled_from([-(10**30), 10**9, 10**400]))
_GRAPH_DOCS = st.one_of(
    graphs().map(graph_to_json),
    st.sampled_from([
        {"m": 2, "n": 1, "colors": [[True], [4]]},
        {"m": -1, "n": 0, "colors": []},
        {"m": 1, "n": 2, "colors": [[1]]},
        [1, 2, 3],
    ]),
)
_CYCLES = ["()", "(12)", "(13)", "(23)", "(123)", "(132)"]
_WORD_DOCS = st.one_of(
    st.lists(
        st.fixed_dictionaries({
            "support": st.lists(st.fixed_dictionaries({
                "side": st.sampled_from(["L", "R"]),
                "i": st.one_of(st.integers(-1, 4), st.just(10**400)),
            }), max_size=3),
            "sigma": st.sampled_from(_CYCLES),
        }),
        max_size=4,
    ),
    st.sampled_from([
        {"not": "a list"},
        [5],
        [{"support": [{"side": "X", "i": 0}], "sigma": "(12)"}],
        [{"support": [{"side": "L", "i": True}], "sigma": "(12)"}],
        [{"support": 5, "sigma": "(12)"}],
        [{"support": [], "sigma": "(21)"}],
    ]),
)
# verify-lemmas checks that run in well under a second, and a name that is none
_CHEAP_CHECKS = ["s3-table-fidelity", "orbit-engine", "h12-closure", "redu-saturation",
                 "collapse-trichotomy", "bogus"]


@st.composite
def _cli_argv(draw):
    num = lambda strategy=_NUMBERS: str(draw(strategy))
    command = draw(st.sampled_from(
        ["generate", "chain", "check-theta", "sfsp-bound", "sfsp-estimate", "orbits",
         "apply-word", "edge-kill", "monochromatize", "distinguish", "verify-lemmas"]
    ))
    if command == "generate":
        return ["generate", "--m", num(), "--n", num(), "--seed", num()]
    if command == "chain":
        return ["chain", "--seed", num(), "--count", num()]
    stats = lambda: ["--stats"] if draw(st.booleans()) else []
    if command == "check-theta":
        argv = ["check-theta", "--input", "{graph}", "--k", num()]
        if draw(st.booleans()):
            argv += ["--sampled", "--trials", num(_TRIALS)]
            if draw(st.booleans()):
                argv += ["--seed", num()]
        if draw(st.booleans()):
            argv += ["--budget", num()]
        return argv + stats()
    if command == "sfsp-bound":
        return ["sfsp-bound", "--k", num(), "--n", num()]
    if command == "sfsp-estimate":
        return ["sfsp-estimate", "--n", num(), "--k", num(), "--trials", num(_TRIALS),
                "--seed", num()] + stats()
    if command == "apply-word":
        return ["apply-word", "--input", "{graph}", "--word", "{word}"]
    if command == "edge-kill":
        cycle = lambda: draw(st.sampled_from(_CYCLES + ["(21)"]))
        argv = ["edge-kill", "--x", num(_SIDES), "--y", num(_SIDES), "--f", cycle(), "--g", cycle()]
        return argv + (["--input", "{graph}"] if draw(st.booleans()) else [])
    if command == "monochromatize":
        return ["monochromatize", "--input", "{graph}", "--target", num()]
    if command == "verify-lemmas":
        names = draw(st.lists(st.sampled_from(_CHEAP_CHECKS), min_size=1, max_size=2))
        return ["verify-lemmas", "--only", ",".join(names)] + stats()
    argv = [command, "--m", num(_SIDES), "--n", num(_SIDES)]
    if command == "orbits":
        argv += ["--group", draw(st.sampled_from(["Aut", "Sym_lr", "S_l^(12)", "ol_Aut", "Nope"]))]
    elif draw(st.booleans()):
        argv += ["--with-swap"]
    argv += stats()
    if draw(st.booleans()):
        argv += ["--budget", num()]
    return argv


_RAND150 = graph_to_json(random_graph(150, 150, 1))


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_cli_argv(), _GRAPH_DOCS, _WORD_DOCS)
@example(["sfsp-bound", "--k", "1", "--n", str(10**400)], {}, [])  # n past the float range
@example(["sfsp-bound", "--k", "1000000", "--n", "100000000"], {}, [])  # k-fold binomials
@example(["sfsp-estimate", "--n", str(10**400), "--k", str(10**400), "--trials", "1",
          "--seed", "1"], {}, [])
@example(["chain", "--seed", "1", "--count", str(10**400)], {}, [])
@example(["sfsp-estimate", "--n", "8", "--k", "1", "--trials", "2", "--seed", "1", "--stats"], {}, [])
@example(["check-theta", "--input", "{graph}", "--k", "2", "--sampled", "--trials", "3",
          "--seed", "1", "--stats"], {"m": 2, "n": 3, "colors": [[1, 2, 3], [3, 2, 1]]}, [])
# an order past the set-size cell cap is refused before any cell is enumerated
@example(["check-theta", "--input", "{graph}", "--k", "150"], _RAND150, [])
@example(["check-theta", "--input", "{graph}", "--k", "150", "--sampled", "--trials", "10",
          "--seed", "1"], _RAND150, [])
@example(["sfsp-estimate", "--n", "2000", "--k", "1000", "--trials", "1", "--seed", "1"], {}, [])
# JSON nested past the recursion limit, as the graph or the word
@example(["check-theta", "--input", "{graph}", "--k", "1"], _DEEP, [])
@example(["apply-word", "--input", "{graph}", "--word", "{word}"], {"m": 1, "n": 1, "colors": [[1]]}, _DEEP)
def test_cli_fuzz_single_json_document(tmp_path, capsys, argv, doc, word):
    # a str document is written as it is: json.dumps cannot nest that deep
    path, word_path = tmp_path / "g.json", tmp_path / "w.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    word_path.write_text(word if isinstance(word, str) else json.dumps(word))
    argv = [arg.format(graph=path, word=word_path) for arg in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        return
    assert out.count("\n") == 1 and out.endswith("\n")
    data = json.loads(out)
    assert isinstance(data, dict)
    assert (list(data) == ["error"]) == (code == 1)
    if "--stats" not in argv or code == 1:
        assert err == ""
    if code == 0 and "--stats" in argv:
        # --stats adds one JSON object on stderr and nothing to stdout
        assert err.count("\n") == 1 and err.endswith("\n")
        assert isinstance(json.loads(err), dict)
