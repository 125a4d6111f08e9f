"""switchlab benchmark: four closed-loop workloads, one job at a time.

    python3 perfbench/run.py --workload census --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload
    python3 perfbench/run.py --record                       # re-record digests

Each workload runs in fresh worker processes with BLAS/OpenMP threads pinned
to 1.  ``--trace 0`` reports the end-to-end metrics: set-up time is the
median over SETUP_SAMPLES fresh processes, the rest come from one measured
process.  Times are scaled to the host's nominal speed (see worker.py); the
human-readable lines show the raw figures beside them.  ``--trace 1`` runs one job list, half as long, untraced and then
traced, and reports the per-layer metrics from the traced run's spans.  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are the same numbers for people.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS, SPAN_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("census", "sfsp", "theta-holds", "switching")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # one workload's run, all its worker processes included
TRACE_DIR = HERE / "traces"


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(workload: str, seed: int, seconds: float, jobs, deadline: float,
          *extra: str) -> dict:
    """Run one worker process to completion, killing it at ``deadline``
    (a ``time.monotonic`` value), and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--launched", repr(time.monotonic()), *extra]
    if jobs is not None:
        cmd += ["--jobs", str(jobs)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=max(0.0, deadline - time.monotonic()),
                              check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish within {RUN_LIMIT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies_ms: list[float]) -> tuple[float, str]:
    """The highest of p99, p95, p90 and p75 that leaves at least 10 jobs
    beyond it (nearest rank); the median when there are too few jobs."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    for pct in (99, 95, 90, 75):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return ordered[rank - 1], f"p{pct}"
    return statistics.median(ordered), "p50"


def timings(latencies_s: list[float]) -> tuple[dict, str]:
    lat_ms = [s * 1000 for s in latencies_s]
    tail_ms, tail_pct = tail(lat_ms)
    return {"jobs_per_s": len(lat_ms) / (sum(lat_ms) / 1000),
            "job_p50_ms": statistics.median(lat_ms),
            "job_tail_ms": tail_ms}, f"{tail_pct} of {len(lat_ms)} jobs"


def end_to_end(workload: str, seed: int, seconds: float, jobs,
               deadline: float) -> tuple[dict, list, dict]:
    setups = [spawn(workload, seed, seconds, jobs, deadline, "--setup-only")
              for _ in range(SETUP_SAMPLES - 1)]
    res = spawn(workload, seed, seconds, jobs, deadline)
    setups.append(res)
    scaled, tail_note = timings(res["latencies_s"])
    raw, _ = timings(res["raw_latencies_s"])
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
        "jobs_per_s": (scaled["jobs_per_s"], "1/s"),
        "job_p50_ms": (scaled["job_p50_ms"], "ms"),
        "job_tail_ms": (scaled["job_tail_ms"], "ms"),
        "peak_rss_mib": (res["peak_rss_kib"] / 1024, "MiB"),
    }
    notes = {name: f"raw {value:.4g}" for name, value in raw.items()}
    notes["job_tail_ms"] += f"; {tail_note}"
    notes["setup_s"] = (f"median of {len(setups)} fresh processes; raw "
                        f"{statistics.median(r['setup_raw_s'] for r in setups):.4g}")
    return metrics, [res], notes


def per_layer(workload: str, seed: int, seconds: float, jobs,
              deadline: float) -> tuple[dict, list, dict]:
    # Untraced and traced runs of the same job list, half as long each, so a
    # traced run takes about as long as an untraced one.
    seconds /= 2
    plain = spawn(workload, seed, seconds, jobs, deadline)
    TRACE_DIR.mkdir(exist_ok=True)
    out = TRACE_DIR / f"{workload}-seed{seed}.jsonl"
    traced = spawn(workload, seed, seconds, jobs, deadline,
                   "--trace", "1", "--trace-out", str(out))
    tr, c = traced["trace"], traced["counters"]
    spans = tr["spans"]
    metrics: dict = {}
    for name in SPAN_NAMES:
        s = spans[name]
        metrics[f"{name}.calls"] = (s["calls"], "count")
        metrics[f"{name}.busy_s"] = (s["busy_s"], "s")
        metrics[f"{name}.fail"] = (s["fail"], "count")

    def busy(*names):
        return sum(spans[n]["busy_s"] for n in names)

    def rate(count, seconds_):
        return count / seconds_ if seconds_ > 0 else 0.0

    applied = busy("switches.apply_word.long", "switches.apply_word.kill")
    space = c.get("randomlab.configs_space", 0)
    for name in ("orbits.actions_built", "orbits.states", "orbits.pairs_compared",
                 "randomlab.edges_generated", "randomlab.configs_checked",
                 "randomlab.sampled_trials", "switches.switches_applied",
                 "switches.edge_recolors"):
        metrics[name] = (c.get(name, 0), "count")
    metrics["orbits.table_mib"] = (c.get("orbits.table_mib", 0.0), "MiB")
    metrics["orbits.states_per_s"] = (
        rate(c.get("orbits.states", 0), busy("orbits.partition_from_actions")), "1/s")
    metrics["randomlab.configs_per_s"] = (
        rate(c.get("randomlab.configs_checked", 0), busy("randomlab.check_theta")), "1/s")
    metrics["randomlab.scan_fraction"] = (
        c.get("randomlab.configs_checked", 0) / space if space else 0.0, "ratio")
    metrics["switches.edge_recolors_per_s"] = (
        rate(c.get("switches.edge_recolors", 0), applied), "1/s")
    job_s = tr["job_s"]
    for layer in LAYERS:
        metrics[f"share.{layer}"] = (tr["layer_s"][layer] / job_s, "ratio")
    metrics["job.self_s"] = (job_s - tr["covered_s"], "s")
    metrics["trace.span_coverage"] = (tr["covered_s"] / job_s, "ratio")
    metrics["trace.overhead_frac"] = (job_s / sum(plain["latencies_s"]) - 1, "ratio")
    notes = {"trace.span_coverage": f"spans in {out.relative_to(ROOT)}"}
    return metrics, [plain, traced], notes


def measure(workload: str, seed: int, seconds: float, trace: bool, jobs=None) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    metrics, runs, notes = (per_layer if trace else end_to_end)(workload, seed, seconds,
                                                                jobs, deadline)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"== {workload} (seed {seed}, {'traced' if trace else 'untraced'}; "
          f"digests checked: {runs[-1]['digests_checked']})")
    for name, (value, unit) in {**metrics, "fail_frac": (failed / attempted, "ratio")}.items():
        note = f"   ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {value:14.6g} {unit}{note}")
    for run in runs:
        for problem in run["problems"]:
            print(f"  FAIL {problem}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def record() -> None:
    """Re-record expected.json: digests of each workload's first jobs for
    the default and the held-out seed.  Only for an intended output change."""
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    digests: dict = {}
    for workload in WORKLOADS:
        for seed in (expected["default_seed"], expected["heldout_seed"]):
            jobs = None if workload == "census" else expected["digest_jobs"]
            # seconds=0 gives census its one-pass minimum
            res = spawn(workload, seed, 0, jobs, time.monotonic() + RUN_LIMIT_S,
                        "--record-digests")
            if res["failed"]:
                raise BenchError(f"{workload} seed {seed}: {res['problems']}")
            if workload == "census":
                digests["census"] = dict(res["digests"])
            else:
                digests.setdefault(workload, {})[str(seed)] = [d for _, d in res["digests"]]
    expected["digests"] = digests
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=None,
                        help="smoke runs: this many jobs instead of the --seconds list")
    parser.add_argument("--record", action="store_true",
                        help="re-record perfbench/expected.json and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "switchlab" / "__init__.py").is_file():
        print(f"no switchlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.record:
            record()
            return 0
        if args.workload != "all":
            result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.jobs)
        else:
            result = {w: measure(w, args.seed, args.seconds, bool(args.trace), args.jobs)
                      for w in WORKLOADS}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
