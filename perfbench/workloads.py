"""The four benchmark workloads: input generation, jobs and output checks.

Each workload is a class with the same four parts:

- ``__init__(seed, count, t)`` generates the inputs of jobs ``0..count-1``.
  Job ``i``'s inputs depend only on ``(seed, i)``, so a longer run measures
  a superset of a shorter one and recorded digests stay comparable.
- ``run(i, t)`` is one job: only calls into switchlab, each through
  ``t.call`` so a traced run can wrap it in a span.  It returns the job's
  output record (what the CLI would print for the same inputs, hashed into
  the digest) and extra values that only the checks read.
- ``check(i, record, extra)`` returns a list of problems; empty means the
  output is correct.  Checks run after the job's clock has stopped.
- ``counters(i, record, extra)`` returns the job's per-layer work counts.
- ``key(i)`` names job ``i`` for the recorded digests.
"""

from __future__ import annotations

import itertools
import math
import random

from switchlab import graphs, orbits, randomlab, s3, switches


def job_rng(workload: str, seed: int, index: int) -> random.Random:
    """Per-job generator; string seeding is stable across processes."""
    return random.Random(f"{workload}/{seed}/{index}")


def _perm(rng: random.Random, size: int) -> list[int]:
    p = list(range(size))
    rng.shuffle(p)
    return p


# ---------------------------------------------------------------- oracles


def burnside_orbits(m: int, n: int, swap: bool) -> int:
    """Orbit count of the vertex-permutation group (plus the side swap) on
    3-colourings of the m*n edges: the mean of 3^(edge cycles) over the
    group's elements."""
    cells = list(itertools.product(range(m), range(n)))
    maps = []
    for pl in itertools.permutations(range(m)):
        for pr in itertools.permutations(range(n)):
            maps.append({(i, j): (pl[i], pr[j]) for i, j in cells})
            if swap:
                maps.append({(i, j): (pr[j], pl[i]) for i, j in cells})
    total = 0
    for cell_map in maps:
        seen = set()
        cycles = 0
        for start in cells:
            if start in seen:
                continue
            cycles += 1
            cur = start
            while cur not in seen:
                seen.add(cur)
                cur = cell_map[cur]
        total += 3**cycles
    if total % len(maps):
        raise ArithmeticError("Burnside sum is not divisible by the group order")
    return total // len(maps)


def theta_space(size: int, k: int = 1) -> int:
    """Number of ordered triples of disjoint sets of size <= k drawn from
    ``size`` vertices: the configurations an exact check scans per side."""
    total = 0
    for s1, s2, s3_ in itertools.product(range(k + 1), repeat=3):
        if s1 + s2 + s3_ <= size:
            total += (
                math.comb(size, s1)
                * math.comb(size - s1, s2)
                * math.comb(size - s1 - s2, s3_)
            )
    return total


def cubic_residue_colors(q: int) -> list[list[int]]:
    """K_{q,q} coloured by the cubic-residue class of i+j mod q.  For
    q in {97, 103, 109} every ordered triple pattern is realized on both
    sides, so the order-1 extension property holds."""
    cubes = {pow(x, 3, q) for x in range(1, q)}
    noncube = next(x for x in range(2, q) if x not in cubes)
    label = {0: 1}
    for a in cubes:
        label[a] = 1
        label[noncube * a % q] = 2
        label[noncube * noncube % q * a % q] = 3
    return [[label[(i + j) % q] for j in range(q)] for i in range(q)]


def _colors(g) -> list[list[int]]:
    return [list(row) for row in g.colors]


def _cex_json(cex):
    if cex is None:
        return None
    return {"side": cex.side.value, "sets": [list(s) for s in cex.sets]}


class Workload:
    def key(self, i: int):
        return i


# ---------------------------------------------------------------- census


class Census(Workload):
    """One job per (shape, candidate): build the generators, propagate the
    orbit partition, compare it with the shape's earlier candidates.  The
    job list is the paper's candidate census; the seed does not change it,
    and passes after the first repeat it in the same order."""

    SHAPES = (
        (2, 2, True), (3, 3, True),
        (2, 3, False), (3, 2, False), (2, 4, False), (4, 2, False),
        (2, 5, False), (5, 2, False),
    )

    def __init__(self, seed: int, count: int, t) -> None:
        self.census = [
            (m, n, cand)
            for m, n, swap in self.SHAPES
            for cand in orbits.enumerate_candidate_groups(swap)
        ]
        self.earlier: dict[tuple[int, int], list] = {}
        self.oracle: dict[tuple[int, int, bool], int] = {}

    def key(self, i: int) -> str:
        m, n, cand = self.census[i % len(self.census)]
        return f"{m}x{n}/{cand.name}"

    def run(self, i: int, t):
        m, n, cand = self.census[i % len(self.census)]
        if i % len(self.census) == 0:
            self.earlier = {}
        earlier = self.earlier.setdefault((m, n), [])
        actions = t.call("orbits.generators_for", orbits.generators_for, cand.spec, m, n)
        part = t.call("orbits.partition_from_actions",
                      orbits.partition_from_actions, actions, m, n)
        collisions = [
            name for name, other in earlier
            if t.call("orbits.partitions_equal", orbits.partitions_equal, part, other)
        ]
        earlier.append((cand.name, part))
        record = {"m": m, "n": n, "group": cand.name,
                  "orbit_count": part.orbit_count, "collisions": collisions}
        return record, {"partition": part, "actions": len(actions),
                        "compared": len(earlier) - 1}

    def check(self, i: int, record: dict, extra: dict) -> list[str]:
        m, n, name = record["m"], record["n"], record["group"]
        problems = []
        if name in ("Aut", "ol_Aut"):
            key = (m, n, name == "ol_Aut")
            if key not in self.oracle:
                self.oracle[key] = burnside_orbits(*key)
            if record["orbit_count"] != self.oracle[key]:
                problems.append(f"{name} at {m}x{n}: {record['orbit_count']} orbits, "
                                f"Burnside oracle {self.oracle[key]}")
        if name.endswith("Sym_lr") and record["orbit_count"] != 1:
            problems.append(f"{name} at {m}x{n} is not transitive")
        if record["orbit_count"] != extra["partition"].orbit_count:
            problems.append("record and partition disagree on the orbit count")
        aut = self.earlier[(m, n)][0]
        if aut[0] != "Aut" or not orbits.refines(aut[1], extra["partition"]):
            problems.append(f"Aut does not refine {name} at {m}x{n}")
        return problems

    def counters(self, i: int, record: dict, extra: dict) -> dict:
        states = 3 ** (record["m"] * record["n"])
        return {
            "orbits.actions_built": extra["actions"],
            "orbits.states": states,
            "orbits.pairs_compared": extra["compared"],
            "orbits.table_mib": extra["actions"] * states * 8 / 2**20,
        }


# ---------------------------------------------------------------- sfsp


class Sfsp(Workload):
    """Estimate-style trials: a fresh side-balanced random graph, then the
    exact order-1 check, which exits at the first counterexample.  Total
    sizes 128 and 256 interleave 3:1."""

    def __init__(self, seed: int, count: int, t) -> None:
        self.inputs = []
        for i in range(count):
            rng = job_rng("sfsp", seed, i)
            total = 256 if i % 4 == 3 else 128
            self.inputs.append((total, rng.getrandbits(63), theta_space(total // 2)))

    def run(self, i: int, t):
        total, gseed, budget = self.inputs[i]
        side = total // 2
        g = t.call("randomlab.random_graph", randomlab.random_graph, side, side, gseed)
        report = t.call("randomlab.check_theta", randomlab.check_theta, g, 1, budget)
        record = {"n": total, "holds": report.holds,
                  "counterexample": _cex_json(report.counterexample),
                  "checked_left": report.checked_left,
                  "checked_right": report.checked_right}
        return record, {"graph": g, "report": report}

    def check(self, i: int, record: dict, extra: dict) -> list[str]:
        report, g = extra["report"], extra["graph"]
        space = theta_space(g.m)
        if report.holds:
            if record["checked_left"] != space or record["checked_right"] != space:
                return ["holds without a full scan of both sides"]
            return []
        if not randomlab.verify_counterexample(g, 1, report.counterexample):
            return [f"counterexample {record['counterexample']} does not verify"]
        if not 0 < record["checked_left"] + record["checked_right"] <= 2 * space:
            return ["checked counts outside the configuration space"]
        return []

    def counters(self, i: int, record: dict, extra: dict) -> dict:
        g = extra["graph"]
        return {
            "randomlab.edges_generated": g.m * g.n,
            "randomlab.configs_checked": record["checked_left"] + record["checked_right"],
            "randomlab.configs_space": theta_space(g.m) + theta_space(g.n),
        }


# ---------------------------------------------------------------- theta-holds


class ThetaHolds(Workload):
    """Relabelings of cubic-residue graphs that hold the order-1 extension
    property, so the exact check scans every configuration and the sampled
    check runs all its trials."""

    QS = (97, 103, 109)
    SAMPLED_TRIALS = 1000

    def __init__(self, seed: int, count: int, t) -> None:
        base = {q: cubic_residue_colors(q) for q in self.QS}
        self.inputs = []
        for i in range(count):
            q = self.QS[i % len(self.QS)]
            rng = job_rng("theta-holds", seed, i)
            rows, cols = _perm(rng, q), _perm(rng, q)
            gamma = (0,) + rng.choice(s3.ALL_PERMS).image
            colors = [[gamma[base[q][r][c]] for c in cols] for r in rows]
            g = t.call("graphs.new_graph", graphs.new_graph, q, q, colors)
            self.inputs.append((g, rng.getrandbits(63), theta_space(q)))

    def run(self, i: int, t):
        g, sample_seed, budget = self.inputs[i]
        report = t.call("randomlab.check_theta", randomlab.check_theta, g, 1, budget)
        sampled = t.call("randomlab.check_theta_sampled", randomlab.check_theta_sampled,
                         g, 1, self.SAMPLED_TRIALS, sample_seed)
        record = {"q": g.m, "holds": report.holds,
                  "counterexample": _cex_json(report.counterexample),
                  "checked_left": report.checked_left,
                  "checked_right": report.checked_right,
                  "trials": sampled.trials, "violations": sampled.violations}
        return record, {}

    def check(self, i: int, record: dict, extra: dict) -> list[str]:
        space = theta_space(record["q"])
        problems = []
        if not record["holds"] or record["counterexample"] is not None:
            problems.append(f"property reported failing on q={record['q']}")
        if (record["checked_left"], record["checked_right"]) != (space, space):
            problems.append("exact check did not scan every configuration")
        if record["trials"] != self.SAMPLED_TRIALS or record["violations"] != 0:
            problems.append(f"{record['violations']} sampled violations")
        return problems

    def counters(self, i: int, record: dict, extra: dict) -> dict:
        space = theta_space(record["q"])
        return {
            "randomlab.configs_checked": record["checked_left"] + record["checked_right"],
            "randomlab.configs_space": 2 * space,
            "randomlab.sampled_trials": record["trials"],
        }


# ---------------------------------------------------------------- switching


NONCOMMUTING = tuple(
    (f, g) for f in s3.ALL_PERMS for g in s3.ALL_PERMS if not s3.commutes(f, g)
)


def _edges_touched(word, m: int, n: int) -> int:
    """Edges with an endpoint in the support, summed over the word's switches."""
    total = 0
    for op in word.ops:
        left = sum(1 for v in op.support if v.side is graphs.Side.LEFT)
        right = len(op.support) - left
        total += left * n + right * m - left * right
    return total


class Switching(Workload):
    """Monochromatize a seeded graph, replay the word and its inverse, run all
    18 non-commuting edge kills at one edge, find an isomorphism to a
    relabelled side swap (sides <= 6), and round-trip graph and word JSON."""

    SIDES = (3, 4, 5, 6, 8, 10)
    ISO_MAX_SIDE = 6

    def __init__(self, seed: int, count: int, t) -> None:
        self.inputs = []
        for i in range(count):
            s = self.SIDES[i % len(self.SIDES)]
            rng = job_rng("switching", seed, i)
            g = t.call("randomlab.random_graph", randomlab.random_graph, s, s,
                       rng.getrandbits(63))
            target = rng.randint(1, 3)
            edge = (rng.randrange(s), rng.randrange(s))
            h = None
            if s <= self.ISO_MAX_SIDE:
                rows, cols = _perm(rng, s), _perm(rng, s)
                swapped = [[g.colors[rows[i_]][cols[j]] for i_ in range(s)]
                           for j in range(s)]
                h = t.call("graphs.new_graph", graphs.new_graph, s, s, swapped)
            self.inputs.append((g, target, edge, h))

    def run(self, i: int, t):
        g, target, (x, y), h = self.inputs[i]
        word = t.call("switches.monochromatize", switches.monochromatize, g, target)
        result = t.call("switches.apply_word.long", switches.apply_word, g, word)
        inverse = t.call("switches.inverse_word", switches.inverse_word, word)
        restored = t.call("switches.apply_word.long", switches.apply_word, result, inverse)
        kills = []
        for f, gp in NONCOMMUTING:
            kw = t.call("switches.edge_kill_word", switches.edge_kill_word, x, y, f, gp)
            kills.append(t.call("switches.apply_word.kill", switches.apply_word, g, kw))
        witness = None
        if h is not None:
            witness = t.call("graphs.is_isomorphic", graphs.is_isomorphic, g, h,
                             allow_swap=True)
        graph_json = t.call("graphs.json", graphs.graph_to_json, result)
        graph_back = t.call("graphs.json", graphs.graph_from_json, graph_json)
        word_json = t.call("switches.json", switches.word_to_json, word)
        word_back = t.call("switches.json", switches.word_from_json, word_json)
        record = {"m": g.m, "n": g.n, "target": target, "edge": [x, y],
                  "word": word_json, "result": graph_json["colors"],
                  "kills": [_colors(k) for k in kills],
                  "isomorphic": None if h is None else witness is not None}
        extra = {"graph": g, "word": word, "restored": restored, "kills": kills,
                 "witness": witness, "other": h, "graph_back": graph_back,
                 "word_back": word_back, "result": result}
        return record, extra

    def check(self, i: int, record: dict, extra: dict) -> list[str]:
        g, word = extra["graph"], extra["word"]
        target, (x, y) = record["target"], record["edge"]
        problems = []
        if any(c != target for row in record["result"] for c in row):
            problems.append("monochromatized graph is not constant")
        off = sum(1 for row in g.colors for c in row if c != target)
        if len(record["word"]) > 8 * off:
            problems.append(f"word of {len(record['word'])} switches for {off} edges")
        if extra["restored"] != g:
            problems.append("inverse word does not restore the graph")
        for (f, gp), killed in zip(NONCOMMUTING, record["kills"]):
            expected = _colors(g)
            expected[x][y] = s3.commutator(f, gp)(g.colors[x][y])
            if killed != expected:
                problems.append(f"edge kill ({f}, {gp}) recoloured more than ({x}, {y})")
        if extra["other"] is not None:
            w = extra["witness"]
            if w is None or not graphs.verify_iso_witness(g, extra["other"], w):
                problems.append("no valid isomorphism to the relabelled side swap")
        if extra["graph_back"] != extra["result"]:
            problems.append("graph JSON round trip changed the graph")
        if extra["word_back"] != word or switches.word_to_json(word) != record["word"]:
            problems.append("word JSON round trip changed the word")
        return problems

    def counters(self, i: int, record: dict, extra: dict) -> dict:
        g, word = extra["graph"], extra["word"]
        kill_recolors = sum(
            _edges_touched(switches.edge_kill_word(*record["edge"], f, gp), g.m, g.n)
            for f, gp in NONCOMMUTING
        )
        return {
            "switches.switches_applied": 2 * len(word) + 4 * len(NONCOMMUTING),
            "switches.edge_recolors": 2 * _edges_touched(word, g.m, g.n) + kill_recolors,
        }


WORKLOADS = {
    "census": Census,
    "sfsp": Sfsp,
    "theta-holds": ThetaHolds,
    "switching": Switching,
}

#: Jobs per second of run wall time at the seed commit (2 cores, Python 3.11,
#: numpy 2.4), so that a run of ``--seconds s`` measures about s seconds.
#: Job counts derive from these constants, never from a measurement, so two
#: commits run the same job list.
NOMINAL_RATE = {
    "census": 28.0,
    "sfsp": 20.0,
    "theta-holds": 2.7,
    "switching": 80.0,
}


def job_count(workload: str, seconds: float) -> int:
    if workload == "census":
        per_pass = sum(len(orbits.enumerate_candidate_groups(swap))
                       for _, _, swap in Census.SHAPES)
        return per_pass * max(1, round(seconds * NOMINAL_RATE["census"] / per_pass))
    return max(1, math.ceil(seconds * NOMINAL_RATE[workload]))

