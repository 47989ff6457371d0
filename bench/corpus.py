"""Seeded corpora for the three benchmark workloads.

Each workload function draws its instances from ``random.Random(seed)``, decides every
answer with ground truth that does not come from the solver under test,
writes the instance files into ``workdir`` and returns the ops to run.
Sizes follow fixed schedules and YES/NO counts are fixed per family, so that
two seeds give corpora of the same shape and cost; only the contents vary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from pathlib import Path

# the generators are called through their module so that a traced set-up,
# which rebinds module attributes, sees them
from dakc import CnfFormula, DirectedGraph, Instance, SetCoverInstance, oracle_solve, reductions

import truth

TRIAL_CAP = "2000"


@dataclass(frozen=True)
class Op:
    """One ``dakc`` command and what its answer must be.

    For ``max`` ops ``expect_yes`` says whether the reported ``max_p`` must
    reach ``p``; for the others it is the expected yes/no answer.
    """

    ident: str
    kind: str
    argv: tuple[str, ...]
    expect_yes: bool
    b: int
    k: int
    p: int
    in_nbrs: list[list[int]]

    @property
    def expected(self) -> str:
        if self.kind == "max":
            return "max_p>=p" if self.expect_yes else "max_p<p"
        return "yes" if self.expect_yes else "no"


def _write(workdir: Path, ident: str, n: int, arcs: list[tuple[int, int]], b: int, k: int, p: int) -> tuple[str, list[list[int]]]:
    path = workdir / f"{ident}.dakc"
    lines = [f"p dakc {n} {len(arcs)}"]
    lines += [f"a {u + 1} {v + 1}" for u, v in arcs]
    lines.append(f"q {b} {k} {p}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    in_nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in arcs:
        in_nbrs[v].append(u)
    return str(path), in_nbrs


def _ops(workdir: Path, ident: str, kinds: tuple[str, ...], inst: Instance, expect_yes: bool, *flags: str) -> list[Op]:
    """Write one instance file and return one op per command run on it."""
    path, in_nbrs = _write(workdir, ident, inst.graph.n, list(inst.graph.arcs()), inst.b, inst.k, inst.p)
    return [
        Op(f"{ident}-{kind}" if len(kinds) > 1 else ident, kind, (kind, path, *flags), expect_yes, inst.b, inst.k, inst.p, in_nbrs)
        for kind in kinds
    ]


def _subsets(n: int, b: int) -> int:
    return sum(comb(n, i) for i in range(min(n, b) + 1))


def _answered(rng: random.Random, want: bool, draw):
    """Call ``draw(rng)`` until it returns ``(item, answer)`` with ``answer == want``."""
    while True:
        got = draw(rng)
        if got is not None and got[1] == want:
            return got[0]


# ---------------------------------------------------------------------------
# oracle-corpus: the reduction generators, solved by `dakc oracle`
# ---------------------------------------------------------------------------

# instances whose oracle would try more anchor subsets than this are redrawn
ORACLE_SUBSET_CAP = 20_000


def _cnf(rng: random.Random, num_vars: int) -> list[tuple[int, ...]]:
    """Random CNF in the shape gen_from_sat accepts: 1-3 literals per clause,
    each variable at most 3 times and at most twice per polarity."""
    literals = []
    for v in range(1, num_vars + 1):
        pos, neg = rng.choice([(1, 1), (2, 1), (1, 2)])
        literals += [v] * pos + [-v] * neg
    rng.shuffle(literals)
    clauses: list[list[int]] = []
    for lit in literals:
        open_ = [c for c in clauses if len(c) < rng.choice((1, 2, 3)) and all(abs(x) != abs(lit) for x in c)]
        if open_:
            rng.choice(open_).append(lit)
        else:
            clauses.append([lit])
    return [tuple(c) for c in clauses]


def _draw_sat(rng: random.Random):
    clauses = _cnf(rng, 4)
    return clauses, truth.satisfiable(4, clauses)


def _draw_cover(rng: random.Random, universe: int, count: int, budget: int, density: float):
    sets = [sum(1 << e for e in range(universe) if rng.random() < density) for _ in range(count)]
    if any(not any((s >> e) & 1 for s in sets) for e in range(universe)):
        return None
    return SetCoverInstance(universe, tuple(sets), budget), truth.coverable(universe, sets, budget)


# (clique size, k, edge probability) on 7 vertices
CLIQUE_SCHEDULE = ((3, 2, 0.35), (3, 3, 0.35), (4, 2, 0.55), (4, 3, 0.55))
# (universe, sets, budget) at set density 0.6
COVER_SCHEDULE = ((2, 2, 1), (2, 3, 1), (3, 3, 1), (3, 3, 2))
# (universe, sets) of the threshold-1 base; budget 1 answers YES and 0 answers NO
AMPLIFY_SCHEDULE = ((1, 1), (1, 2), (2, 1))
ORACLE_ROUNDS = 10


def oracle_corpus(rng: random.Random, workdir: Path) -> list[Op]:
    """Every schedule entry gives one YES and one NO instance per round."""
    answers = (True, False)
    ops = []
    for i in range(4 * ORACLE_ROUNDS):
        for yes in answers:
            clauses = _answered(rng, yes, _draw_sat)
            inst = reductions.gen_from_sat(CnfFormula(4, tuple(clauses)), k=1).instance
            ops += _ops(workdir, f"sat-{i:02d}-{'yes' if yes else 'no'}", ("oracle",), inst, yes)

    for i in range(ORACLE_ROUNDS * len(CLIQUE_SCHEDULE)):
        size, k, prob = CLIQUE_SCHEDULE[i % len(CLIQUE_SCHEDULE)]

        def draw_clique(r):
            edges = [(u, v) for u in range(7) for v in range(u + 1, 7) if r.random() < prob]
            if _subsets(7 + len(edges) + k - 2, size + k - 2) > ORACLE_SUBSET_CAP:
                return None
            return edges, truth.has_clique(7, edges, size)

        for yes in answers:
            edges = _answered(rng, yes, draw_clique)
            inst = reductions.gen_from_clique(7, edges, b=size, k=k).instance
            ops += _ops(workdir, f"clique-{i:02d}-{'yes' if yes else 'no'}", ("oracle",), inst, yes)

    for i in range(ORACLE_ROUNDS * len(COVER_SCHEDULE)):
        universe, count, budget = COVER_SCHEDULE[i % len(COVER_SCHEDULE)]
        for yes in answers:
            cover = _answered(rng, yes, lambda r: _draw_cover(r, universe, count, budget, 0.6))
            inst = reductions.gen_from_setcover(cover).instance
            ops += _ops(workdir, f"cover-{i:02d}-{'yes' if yes else 'no'}", ("oracle",), inst, yes)

    for i in range(ORACLE_ROUNDS * len(AMPLIFY_SCHEDULE) // 2):
        universe, count = AMPLIFY_SCHEDULE[i % len(AMPLIFY_SCHEDULE)]
        for budget, yes in ((1, True), (0, False)):
            cover = _answered(rng, yes, lambda r: _draw_cover(r, universe, count, budget, 0.6))
            inst = reductions.amplify_k(reductions.gen_from_setcover(cover).instance, k=2, delta=5).instance
            ops += _ops(workdir, f"amplify-{i:02d}-{'yes' if yes else 'no'}", ("oracle",), inst, yes)
    return ops


# ---------------------------------------------------------------------------
# bounded-regimes: degree-capped random digraphs, solved by `dakc solve`
# ---------------------------------------------------------------------------


def _local_digraph(rng: random.Random, n: int, delta: int, window: int, acyclic: bool) -> DirectedGraph:
    """Random digraph on a ring: arcs join vertices at most ``window`` apart,
    added in random order while both endpoints have total degree below
    ``delta``.  Locality makes small anchored cores common."""
    rank = list(range(n))
    rng.shuffle(rank)
    pairs = [(u, (u + d) % n) for u in range(n) for d in range(1, window + 1)]
    pairs += [(v, u) for u, v in pairs]
    if acyclic:
        pairs = [(u, v) for u, v in pairs if rank[u] < rank[v]]
    rng.shuffle(pairs)
    degree = [0] * n
    arcs = []
    for u, v in pairs:
        if degree[u] < delta and degree[v] < delta:
            arcs.append((u, v))
            degree[u] += 1
            degree[v] += 1
    return DirectedGraph.from_arcs(n, arcs)


def _largest_feasible(g: DirectedGraph, b: int, k: int) -> int:
    """Largest p the exhaustive oracle answers YES for (bisection over p)."""
    lo, hi, best = b + 1, g.n, b
    while lo <= hi:
        mid = (lo + hi) // 2
        if oracle_solve(Instance(graph=g, b=b, k=k, p=mid)).is_yes:
            best, lo = mid, mid + 1
        else:
            hi = mid - 1
    return best


# (name, k, max degree, b, vertex range, ring window, acyclic, instances,
# n - p* or None); the DAG solver drops one sink per round until n = p, so a
# fixed n - p* gives every DAG op the same number of rounds
REGIMES = (
    ("high", 2, 3, 1, (24, 26), 2, False, 20, None),
    ("high", 2, 3, 2, (24, 26), 2, False, 20, None),
    ("high", 3, 5, 2, (24, 26), 2, False, 20, None),
    ("half", 2, 4, 1, (22, 30), 2, False, 60, None),
    ("dag", 2, 5, 2, (12, 16), 3, True, 60, 6),
)


def bounded_regimes(rng: random.Random, workdir: Path) -> list[Op]:
    """Each graph has exactly the regime's max degree, so auto dispatch routes
    it there, and a largest feasible core above b and below n.  Half-k graphs
    also satisfy n > (max degree * p + 1) * b, so stage 3 runs.  Instances
    alternate p = p* (YES) and p = p* + 1 (NO)."""
    ops = []
    for name, k, delta, b, (lo, hi), window, acyclic, count, slack in REGIMES:
        for i in range(count):
            # YES/NO pairs share a vertex count; counts sweep the range evenly
            n = lo + (i // 2) * (hi - lo) // max(1, count // 2 - 1)
            while True:
                g = _local_digraph(rng, n, delta, window, acyclic)
                if g.max_degree() != delta:
                    continue
                if not oracle_solve(Instance(graph=g, b=b, k=k, p=b + 1)).is_yes:
                    continue
                best = _largest_feasible(g, b, k)
                p = best + i % 2
                if p >= n or (name == "half" and n <= (delta * p + 1) * b):
                    continue
                if slack is not None and n - best != slack:
                    continue
                break
            inst = Instance(graph=g, b=b, k=k, p=p)
            ident = f"{name}-k{k}-b{b}-{i:02d}"
            ops += _ops(workdir, ident, ("solve",), inst, i % 2 == 0, "--trial-cap", TRIAL_CAP)
    return ops


# ---------------------------------------------------------------------------
# k1-setcover: large threshold-1 graphs, solved by `dakc solve` and `dakc max`
# ---------------------------------------------------------------------------

# (universe, sets, budget), each used for K1_PER_SIZE instances, half YES; the
# graph has about universe * sets * (2 * universe + 1) vertices, 0.8k-3.2k here,
# so that solve times on the large graphs overlap max times on the small ones
K1_PER_SIZE = 8
K1_SCHEDULE = ((6, 10, 3), (7, 10, 3), (7, 12, 4), (8, 12, 4), (8, 13, 5), (9, 13, 5), (9, 14, 4), (10, 15, 5))


def k1_setcover(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for i in range(K1_PER_SIZE * len(K1_SCHEDULE)):
        universe, count, budget = K1_SCHEDULE[i // K1_PER_SIZE]
        want = i % 2 == 0
        cover = _answered(rng, want, lambda r: _draw_cover(r, universe, count, budget, 1.3 / budget))
        inst = reductions.gen_from_setcover(cover).instance
        ops += _ops(workdir, f"cover-{i:02d}", ("solve", "max"), inst, want)
    return ops


WORKLOADS = {
    "oracle-corpus": oracle_corpus,
    "bounded-regimes": bounded_regimes,
    "k1-setcover": k1_setcover,
}
