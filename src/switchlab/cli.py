"""Command-line interface.

Every subcommand writes a single JSON document to stdout (sorted keys, so
identical invocations are byte-identical).  Domain errors produce
``{"error": ...}`` and exit status 1; usage errors exit 2.  Subcommands that
draw randomness require an explicit ``--seed``.  Timings and work counters
go to stderr, as one JSON document, only under ``--stats``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .graphs import graph_from_json, graph_to_json
from .orbits import (
    BudgetExceededError,
    DEFAULT_ORBIT_BUDGET,
    candidate_by_name,
    distinguish_candidates,
    orbit_partition,
)
from .randomlab import (
    DEFAULT_THETA_BUDGET,
    ThetaBudgetError,
    chain,
    check_theta,
    check_theta_sampled,
    estimate_failure_prob,
    random_graph,
    sfsp_bound,
)
from .s3 import S3Perm
from .switches import (
    apply_word,
    edge_kill_word,
    monochromatize,
    word_from_json,
    word_to_json,
)
from . import verify as verify_mod

__all__ = ["main"]


def _emit(obj) -> None:
    def default(value):
        raise TypeError(f"not JSON-serializable: {value!r}")

    print(json.dumps(obj, sort_keys=True, default=default))


def _emit_stats(args, start: float, **counters) -> None:
    if args.stats:
        stats = {"seconds": time.perf_counter() - start, **counters}
        print(json.dumps(stats, sort_keys=True), file=sys.stderr)


def _read_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_graph(path: str):
    return graph_from_json(_read_json(path))


def _cmd_generate(args) -> int:
    _emit(graph_to_json(random_graph(args.m, args.n, args.seed)))
    return 0


def _cmd_chain(args) -> int:
    graphs = chain(args.seed, args.count)
    _emit({"seed": args.seed, "graphs": [graph_to_json(g) for g in graphs]})
    return 0


def _cmd_check_theta(args) -> int:
    g = _load_graph(args.input)
    start = time.perf_counter()
    if args.sampled:
        if args.seed is None:
            raise ValueError("--sampled requires --seed")
        res = check_theta_sampled(g, args.k, args.trials, args.seed)
        _emit_stats(args, start, blocks=res.blocks)
        _emit({"k": res.k, "mode": "sampled", "trials": res.trials,
               "violations": res.violations, "violation_rate": res.violation_rate})
        return 0
    report = check_theta(g, args.k, args.budget)
    _emit_stats(args, start, blocks=report.blocks, kernel_calls=report.kernel_calls,
                exit_cell=report.exit_cell)
    cex = report.counterexample
    if cex is not None:
        cex = {"side": cex.side.value, "sets": [list(s) for s in cex.sets]}
    _emit(
        {
            "k": report.k,
            "mode": "exact",
            "holds": report.holds,
            "counterexample": cex,
            "checked_left": report.checked_left,
            "checked_right": report.checked_right,
        }
    )
    return 0


def _cmd_apply_word(args) -> int:
    g = _load_graph(args.input)
    word = word_from_json(_read_json(args.word))
    _emit(graph_to_json(apply_word(g, word)))
    return 0


def _cmd_edge_kill(args) -> int:
    word = edge_kill_word(
        args.x, args.y, S3Perm.from_cycle_string(args.f), S3Perm.from_cycle_string(args.g)
    )
    out = {"word": word_to_json(word)}
    if args.input is not None:
        result = apply_word(_load_graph(args.input), word)
        out["result"] = graph_to_json(result)
    _emit(out)
    return 0


def _cmd_monochromatize(args) -> int:
    g = _load_graph(args.input)
    word = monochromatize(g, args.target)
    _emit({"word": word_to_json(word), "result": graph_to_json(apply_word(g, word))})
    return 0


def _cmd_orbits(args) -> int:
    cand = candidate_by_name(args.group)
    start = time.perf_counter()
    part = orbit_partition(cand.spec, args.m, args.n, args.budget)
    _emit_stats(args, start, actions=part.actions, rounds=part.rounds, jumps=part.jumps)
    _emit({"m": args.m, "n": args.n, "group": cand.name, "orbit_count": part.orbit_count})
    return 0


def _cmd_distinguish(args) -> int:
    start, parts = time.perf_counter(), {}
    report = distinguish_candidates(args.m, args.n, args.with_swap, args.budget, parts)
    totals = {k: sum(getattr(p, k) for p in parts.values()) for k in ("actions", "rounds", "jumps")}
    _emit_stats(args, start, **totals)
    _emit(report)
    return 0


def _cmd_verify_lemmas(args) -> int:
    names = args.only.split(",") if args.only else None
    start = time.perf_counter()
    results = verify_mod.run_all(names)
    _emit_stats(args, start, checks=[{"name": r.name, "seconds": r.seconds} for r in results])
    _emit(
        {
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
            ],
            "all_passed": all(r.passed for r in results),
        }
    )
    return 0 if all(r.passed for r in results) else 1


def _cmd_sfsp_bound(args) -> int:
    bound = sfsp_bound(args.k, args.n)
    value = None if math.isinf(bound.value) else bound.value
    _emit({"k": bound.k, "n": bound.n, "value": value, "clamped": bound.clamped})
    return 0


def _cmd_sfsp_estimate(args) -> int:
    start = time.perf_counter()
    est = estimate_failure_prob(args.n, args.k, args.trials, args.seed)
    bound = sfsp_bound(args.k, args.n)
    _emit_stats(args, start, exact_checks=est.exact_checks, sampled_checks=est.sampled_checks,
                blocks=est.blocks, kernel_calls=est.kernel_calls)
    _emit(
        {
            "n": est.n,
            "k": est.k,
            "failure_rate": est.failure_rate,
            "half_width": est.half_width,
            "bound": None if math.isinf(bound.value) else bound.value,
            "clamped_bound": bound.clamped,
            "mode": est.mode,
        }
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchlab",
        description="Switch groups, orbit partitions and extension properties "
        "of 3-colored complete bipartite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a seeded random graph")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("chain", help="generate the side-balanced increasing chain")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("check-theta", help="check the order-k extension property")
    p.add_argument("--input", default="-", help="graph JSON file, or - for stdin")
    p.add_argument("--k", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="exact mode (default)")
    mode.add_argument("--sampled", action="store_true", help="Monte Carlo mode")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_THETA_BUDGET)
    p.add_argument("--stats", action="store_true", help="timing and scan counters on stderr")
    p.set_defaults(func=_cmd_check_theta)

    p = sub.add_parser("apply-word", help="apply a switch word to a graph")
    p.add_argument("--input", default="-", help="graph JSON file, or - for stdin")
    p.add_argument("--word", required=True, help="word JSON file, or - for stdin")
    p.set_defaults(func=_cmd_apply_word)

    p = sub.add_parser("edge-kill", help="build the 4-switch word recoloring one edge")
    p.add_argument("--x", type=int, required=True, help="left endpoint index")
    p.add_argument("--y", type=int, required=True, help="right endpoint index")
    p.add_argument("--f", required=True, help="left permutation, e.g. '(123)'")
    p.add_argument("--g", required=True, help="right permutation, e.g. '(12)'")
    p.add_argument("--input", default=None, help="optional graph to apply the word to")
    p.set_defaults(func=_cmd_edge_kill)

    p = sub.add_parser("monochromatize", help="word sending a graph to one color")
    p.add_argument("--input", default="-", help="graph JSON file, or - for stdin")
    p.add_argument("--target", type=int, required=True, choices=(1, 2, 3))
    p.set_defaults(func=_cmd_monochromatize)

    p = sub.add_parser("orbits", help="orbit count of a candidate group")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group", required=True, help='candidate name, e.g. "Aut"')
    p.add_argument("--budget", type=int, default=DEFAULT_ORBIT_BUDGET)
    p.add_argument("--stats", action="store_true", help="timing and propagation counters on stderr")
    p.set_defaults(func=_cmd_orbits)

    p = sub.add_parser("distinguish", help="pairwise orbit comparison of candidates")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--with-swap", action="store_true", dest="with_swap")
    p.add_argument("--budget", type=int, default=DEFAULT_ORBIT_BUDGET)
    p.add_argument("--stats", action="store_true", help="timing and summed propagation counters on stderr")
    p.set_defaults(func=_cmd_distinguish)

    p = sub.add_parser("verify-lemmas", help="run the acceptance checks")
    p.add_argument("--only", default=None, help="comma-separated check names")
    p.add_argument("--stats", action="store_true", help="per-check seconds on stderr")
    p.set_defaults(func=_cmd_verify_lemmas)

    p = sub.add_parser("sfsp-bound", help="evaluate the failure-probability bound")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_sfsp_bound)

    p = sub.add_parser("sfsp-estimate", help="Monte Carlo failure-rate estimate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stats", action="store_true", help="timing and check counters on stderr")
    p.set_defaults(func=_cmd_sfsp_estimate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, BudgetExceededError, ThetaBudgetError, OSError) as exc:
        _emit({"error": str(exc)})
        return 1
    except json.JSONDecodeError as exc:
        _emit({"error": f"malformed JSON input: {exc}"})
        return 1


if __name__ == "__main__":
    sys.exit(main())
