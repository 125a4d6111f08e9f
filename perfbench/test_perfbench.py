"""Tests for the benchmark itself: smoke runs print every metric, and a
corrupted output is counted as a failed job."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
from run import tail  # noqa: E402

worker._import_checkout()

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "1", "--jobs", "2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    wanted = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    people = "\n".join(lines[:-1])
    for name in [m["name"] for m in wanted] + ["fail_frac"]:
        assert f"  {name} " in people


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    proc = _run("--workload", "census", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _judge(wl, name, seed, i, outcome):
    return worker.judge(wl, i, outcome, worker.expected_digests(name, seed))


def test_flipped_orbit_count_fails_the_job():
    t = Tracer(False)
    wl = workloads.Census(1, 1, t)
    record, extra = wl.run(0, t)
    assert _judge(wl, "census", 1, 0, (record, extra)) == []
    bad = dict(record, orbit_count=record["orbit_count"] + 1)
    problems = _judge(wl, "census", 1, 0, (bad, extra))
    assert any("oracle" in p for p in problems)
    assert any("digest" in p for p in problems)


def test_altered_word_op_fails_the_job():
    t = Tracer(False)
    wl = workloads.Switching(1, 1, t)
    record, extra = wl.run(0, t)
    assert _judge(wl, "switching", 1, 0, (record, extra)) == []
    word = [dict(op) for op in record["word"]]
    word[0]["sigma"] = "(13)" if word[0]["sigma"] != "(13)" else "(12)"
    problems = _judge(wl, "switching", 1, 0, (dict(record, word=word), extra))
    assert any("digest" in p for p in problems)
    assert any("round trip" in p for p in problems)


def test_corrupted_job_is_counted_in_fail_frac(monkeypatch):
    class Corrupt(workloads.Census):
        def run(self, i, t):
            record, extra = super().run(i, t)
            if i == 3:
                record["orbit_count"] += 1
            return record, extra

    monkeypatch.setitem(workloads.WORKLOADS, "census", Corrupt)
    result = worker.run("census", 1, 6, 0.0)
    assert (result["attempted"], result["failed"]) == (6, 1)
    assert result["problems"][0].startswith("job 3:")


def test_tail_leaves_ten_jobs_beyond_it():
    assert tail([float(x) for x in range(1, 45)]) == (33.0, "p75")
    assert tail([float(x) for x in range(1, 201)]) == (190.0, "p95")
    assert tail([float(x) for x in range(1, 2001)]) == (1980.0, "p99")
    assert tail([5.0, 1.0, 3.0]) == (3.0, "p50")
