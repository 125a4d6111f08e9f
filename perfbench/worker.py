"""One workload in one fresh process: set up, run the job list, check it.

Started by ``run.py``; prints one JSON object on its last stdout line.
Set-up time runs from the parent's launch stamp (``--launched``, a
``time.monotonic`` value, which is system-wide on Linux) until the inputs
are ready, so it includes interpreter start and ``import switchlab``.

Every time is reported twice: as measured (``raw_*``) and scaled to the
host's current speed.  A shared host runs the same code up to 1.6 times
slower for minutes at a time, so right before each job (and after set-up)
the worker times a fixed reference loop and scales the job's time by
``REF_NOMINAL_S / reference``: the time the job would have taken on the host
running at its nominal speed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

from spans import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXPECTED = HERE / "expected.json"


def _import_checkout():
    """Import switchlab from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import switchlab

    if Path(switchlab.__file__).resolve().parent != SRC / "switchlab":
        raise ImportError(f"switchlab imported from {switchlab.__file__}, not {SRC}")


#: reference_s() on an uncontended core of the calibration host (2 vCPUs,
#: Python 3.11).  Only the scale of reported times depends on it.
REF_NOMINAL_S = 0.00025


def reference_s() -> float:
    """Time of a fixed loop of dict and tuple work, like the interpreter-bound
    parts of switchlab; the better of two tries, so caches that the previous
    job left cold do not count."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        acc: dict = {}
        for k in range(1500):
            acc[k & 63] = (k, k * k, acc.get((k - 1) & 63, (0, 0))[1] + 1)
        best = min(best, time.perf_counter() - start)
    return best


def digest(record: dict) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def expected_digests(workload: str, seed: int) -> dict[str, str]:
    """Recorded digests by job key: census jobs are keyed by shape and
    candidate (the seed does not change them), other jobs by index."""
    data = json.loads(EXPECTED.read_text(encoding="utf-8"))["digests"]
    if workload == "census":
        return data.get("census", {})
    return dict(enumerate(data.get(workload, {}).get(str(seed), [])))


def judge(wl, i: int, outcome, expected: dict) -> list[str]:
    """Problems with one job's outcome: an exception, a failed output check,
    or a digest that differs from the recorded one."""
    if isinstance(outcome, BaseException):
        return [f"raised {outcome!r}"]
    record, extra = outcome
    try:
        problems = wl.check(i, record, extra)
    except Exception as exc:  # a malformed record is a failed check
        problems = [f"check raised {exc!r}"]
    want = expected.get(wl.key(i))
    if want is not None and digest(record) != want:
        problems.append(f"digest {digest(record)} differs from recorded {want}")
    return problems


def run(workload: str, seed: int, count: int | None, seconds: float, *,
        traced: bool = False, setup_only: bool = False, launched: float | None = None,
        trace_out: str | None = None, record_digests: bool = False) -> dict:
    from workloads import WORKLOADS, job_count  # imports switchlab

    tracer = Tracer(traced)
    if count is None:
        count = job_count(workload, seconds)
    wl = WORKLOADS[workload](seed, count, tracer)
    setup_raw = time.monotonic() - launched if launched is not None else None
    setup_scale = REF_NOMINAL_S / reference_s()
    setup = {"setup_raw_s": setup_raw,
             "setup_s": None if setup_raw is None else setup_raw * setup_scale}
    if setup_only:
        return setup

    expected = {} if record_digests else expected_digests(workload, seed)
    gc.collect()
    gc.freeze()  # the inputs stay alive all run; keep them out of collections
    latencies, scales, problems, digests = [], [], [], []
    counters: Counter = Counter()
    table_mib = 0.0
    failed = 0
    for i in range(count):
        scales.append(REF_NOMINAL_S / reference_s())
        tracer.job = i
        start = time.perf_counter()
        try:
            outcome = wl.run(i, tracer)
        except Exception as exc:  # counted as a failed job
            outcome = exc
        end = time.perf_counter()
        tracer.job = None
        tracer.job_span(i, start, end)
        latencies.append(end - start)
        found = judge(wl, i, outcome, expected)
        if found:
            failed += 1
            problems.extend(f"job {i}: {p}" for p in found[:2])
        if isinstance(outcome, BaseException):
            continue
        if record_digests:
            digests.append([wl.key(i), digest(outcome[0])])
        if traced:
            job_counters = wl.counters(i, *outcome)
            table_mib = max(table_mib, job_counters.pop("orbits.table_mib", 0.0))
            counters.update(job_counters)

    result = {
        "workload": workload,
        "seed": seed,
        "attempted": count,
        "failed": failed,
        "digests_checked": sum(1 for i in range(count) if wl.key(i) in expected),
        "problems": problems[:20],
        "latencies_s": [lat * sc for lat, sc in zip(latencies, scales)],
        "raw_latencies_s": latencies,
        **setup,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if record_digests:
        result["digests"] = digests
    if traced:
        counters["orbits.table_mib"] = table_mib
        result["counters"] = dict(counters)
        result["trace"] = tracer.summary(
            lambda job: setup_scale if job is None else scales[job])
        if trace_out:
            tracer.write(trace_out)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--jobs", type=int, default=None,
                        help="run this many jobs instead of the --seconds job list")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--launched", type=float, default=None)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    _import_checkout()
    result = run(args.workload, args.seed, args.jobs, args.seconds,
                 traced=bool(args.trace), setup_only=args.setup_only,
                 launched=args.launched, trace_out=args.trace_out,
                 record_digests=args.record_digests)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
