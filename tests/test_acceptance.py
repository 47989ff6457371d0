"""Acceptance criteria, one test per criterion.

Each test prints a single ``[criterion N] ... PASS/FAIL`` line (run with
``pytest tests/test_acceptance.py -v -s`` to see them live).  All criteria
demand zero mismatches against independent brute-force ground truth.
"""

import random
import time
from itertools import combinations

from dakc import (
    CnfFormula,
    Instance,
    SetCoverInstance,
    amplify_k,
    enumerate_important_separators,
    gen_from_clique,
    gen_from_sat,
    gen_from_setcover,
    is_important,
    oracle_solve,
    peel,
    search_with_coloring,
    coloring_stream,
    solve_dag,
    solve_half_k,
    solve_high_k,
    solve_k1,
    verify_solution,
    vset,
)
from dakc.core import anchor_subset_count
from helpers import (
    clique_brute_force,
    cover_brute_force,
    path_graph,
    peel_in_order,
    random_dag_degree_capped,
    random_digraph,
    random_digraph_degree_capped,
    random_restricted_cnf,
    sat_brute_force,
    solution_exists_with_core_at_most,
)

def _report(num: int, label: str, mismatches: int, extra: str = "") -> None:
    status = "PASS" if mismatches == 0 else f"FAIL ({mismatches} mismatches)"
    suffix = f" {extra}" if extra else ""
    print(f"[criterion {num}] {label}:{suffix} {status}")
    assert mismatches == 0


def _high_k_pool(count: int):
    rng = random.Random(20240001)
    pool = []
    while len(pool) < count:
        n = rng.randint(1, 9)
        k = rng.choice([2, 3])
        delta_cap = 2 * k - rng.randint(1, 2)
        g = random_digraph_degree_capped(rng, n, delta_cap, rng.uniform(0.2, 0.8))
        pool.append(Instance(graph=g, b=rng.randint(0, 2), k=k, p=rng.randint(1, n)))
    return pool


def test_criterion_1_oracle_equivalence_k1():
    rng = random.Random(20240101)
    start = time.monotonic()
    mismatches = 0
    for _ in range(500):
        n = rng.randint(1, 10)
        g = random_digraph(rng, n, rng.uniform(0.05, 0.5))
        inst = Instance(graph=g, b=rng.randint(0, 3), k=1, p=rng.randint(1, n))
        got = solve_k1(inst)
        expect = oracle_solve(inst)
        if got.kind != expect.kind:
            mismatches += 1
        elif got.is_yes and not verify_solution(inst, got.solution):
            mismatches += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(1, "k=1 solver vs oracle on 500 instances", mismatches, f"({elapsed:.1f}s)")


def test_criterion_2_oracle_equivalence_degree_regimes():
    start = time.monotonic()
    mismatches = 0
    for inst in _high_k_pool(300):
        got = solve_high_k(inst)
        expect = oracle_solve(inst)
        if got.kind != expect.kind:
            mismatches += 1
        elif got.is_yes and not verify_solution(inst, got.solution):
            mismatches += 1
    rng = random.Random(20240202)
    for _ in range(300):
        n = rng.randint(1, 9)
        k = rng.choice([1, 2])  # max degree 2k in {2, 4}
        g = random_digraph_degree_capped(rng, n, 2 * k, rng.uniform(0.2, 0.8))
        inst = Instance(graph=g, b=rng.randint(0, 2), k=k, p=rng.randint(1, n))
        got = solve_half_k(inst)
        expect = oracle_solve(inst)
        if got.kind != expect.kind:
            mismatches += 1
        elif got.is_yes and not verify_solution(inst, got.solution):
            mismatches += 1
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    _report(
        2,
        "degree-regime solvers vs oracle on 300+300 instances",
        mismatches,
        f"({elapsed:.1f}s)",
    )


def test_criterion_3_oracle_equivalence_dag():
    rng = random.Random(20240303)
    mismatches = 0
    for _ in range(300):
        n = rng.randint(1, 10)
        g = random_dag_degree_capped(rng, n, 4, rng.uniform(0.2, 0.8))
        inst = Instance(
            graph=g, b=rng.randint(0, 2), k=rng.randint(1, 3), p=rng.randint(1, n)
        )
        got = solve_dag(inst)
        expect = oracle_solve(inst)
        if got.kind != expect.kind:
            mismatches += 1
        elif got.is_yes and not verify_solution(inst, got.solution):
            mismatches += 1
    _report(3, "DAG solver vs oracle on 300 DAGs", mismatches)


def test_criterion_4_important_separators():
    rng = random.Random(20240404)
    mismatches = 0
    checked = 0
    while checked < 200:
        n = rng.randint(3, 9)
        g = random_digraph(rng, n, rng.uniform(0.1, 0.45))
        pairs = [
            (s, t)
            for s in range(n)
            for t in range(n)
            if s != t and not g.has_arc(s, t) and not g.has_arc(t, s)
        ]
        if not pairs:
            continue
        s, t = rng.choice(pairs)
        h = rng.randint(0, 4)
        got = set(enumerate_important_separators(g, s, t, h))
        others = [v for v in range(n) if v != s and v != t]
        expect = set()
        for r in range(min(h, len(others)) + 1):
            for combo in combinations(others, r):
                cand = vset(combo)
                if is_important(g, s, t, cand, h):
                    expect.add(cand)
        if got != expect or len(got) > 4 ** h:
            mismatches += 1
        checked += 1
    _report(4, "separator enumeration vs definition on 200 digraphs", mismatches)


def _random_corpus_cnfs(rng):
    """CNF sources sized so the oracle stays within its enumeration budget:
    the translation sets the anchor budget to 3v+2m at threshold 2, which
    rules out larger formulas by construction, not by choice."""
    corpus = []
    while len(corpus) < 88:
        num_vars = rng.randint(1, 6)
        nv, clauses = random_restricted_cnf(rng, num_vars, max_clauses=rng.randint(2, 5))
        f = CnfFormula(nv, clauses)
        inst = gen_from_sat(f, k=1).instance
        if anchor_subset_count(inst.graph.n, inst.b) > 60_000:
            continue
        corpus.append((f, 1))
    for _ in range(10):
        corpus.append((CnfFormula(1, ((1,), (-1,))), 2))
    corpus.append((CnfFormula(2, ((1, 2), (-1, -2))), 2))
    corpus.append((CnfFormula(2, ((1, -2), (-1, 2))), 2))
    return corpus


def test_criterion_5_reduction_corpus():
    rng = random.Random(20240505)
    mismatches = 0

    for f, k in _random_corpus_cnfs(rng):
        inst = gen_from_sat(f, k=k).instance
        if oracle_solve(inst).is_yes != sat_brute_force(f.num_vars, f.clauses):
            mismatches += 1

    produced = 0
    while produced < 100:
        n = rng.randint(2, 7)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        ]
        b = rng.randint(1, 4)
        k = rng.choice([2, 3])
        inst = gen_from_clique(n, edges, b=b, k=k).instance
        if anchor_subset_count(inst.graph.n, inst.b) > 60_000:
            continue
        if oracle_solve(inst).is_yes != clique_brute_force(n, edges, b):
            mismatches += 1
        produced += 1

    produced = 0
    while produced < 50:
        universe = rng.randint(1, 3)
        r = rng.randint(1, 3)
        sets = tuple(
            vset(e for e in range(universe) if rng.random() < 0.6) for _ in range(r)
        )
        if any(not any((s >> e) & 1 for s in sets) for e in range(universe)):
            continue
        sc = SetCoverInstance(universe=universe, sets=sets, budget=rng.randint(1, r))
        inst = gen_from_setcover(sc).instance
        if anchor_subset_count(inst.graph.n, inst.b) > 150_000:
            continue
        if oracle_solve(inst).is_yes != cover_brute_force(universe, sets, sc.budget):
            mismatches += 1
        produced += 1

    # amplified threshold-2 / max-degree-5 variants, smallest YES and NO bases
    yes_base = gen_from_setcover(
        SetCoverInstance(universe=1, sets=(vset([0]),), budget=1)
    ).instance
    no_base = gen_from_setcover(
        SetCoverInstance(universe=2, sets=(vset([0]), vset([1])), budget=1)
    ).instance
    for base, expected in ((yes_base, True), (no_base, False)):
        amp = amplify_k(base, k=2, delta=5).instance
        assert anchor_subset_count(amp.graph.n, amp.b) <= 10_000_000
        if oracle_solve(amp).is_yes != expected:
            mismatches += 1

    _report(5, "reduction corpus vs source-problem brute force", mismatches)


def test_criterion_6_size_bound_restricted_oracle():
    mismatches = 0
    for inst in _high_k_pool(300):
        delta = inst.graph.max_degree()
        bound = (delta + 1) * inst.b
        unrestricted = oracle_solve(inst).is_yes
        restricted = solution_exists_with_core_at_most(inst, bound)
        if restricted != unrestricted:
            mismatches += 1
    _report(6, "(max degree + 1) * b core bound on the high-k pool", mismatches)


def test_criterion_7_peeling_confluence_and_unraveling_baseline():
    rng = random.Random(20240707)
    mismatches = 0
    for _ in range(200):
        n = rng.randint(1, 10)
        g = random_digraph(rng, n, rng.uniform(0.1, 0.5))
        k = rng.randint(1, 3)
        anchors = vset(v for v in range(n) if rng.random() < 0.25)
        expected = peel(g, k, anchors)
        for _ in range(10):
            if peel_in_order(g, k, anchors, rng) != expected:
                mismatches += 1
    for n in range(3, 11):
        path = path_graph(n)
        if peel(path, 1) != 0:
            mismatches += 1
        if peel(path, 1, vset([0])) != path.full_mask:
            mismatches += 1
    _report(7, "peeling confluence and directed-path unraveling", mismatches)


def test_criterion_8_randomized_mode_soundness():
    # planted instance: the 3-path whose unique solution anchors the source
    g = path_graph(3)
    b, k, p, q = 1, 1, 3, 3
    delta = g.max_degree()
    inst = Instance(graph=g, b=b, k=k, p=p)
    trials = 10_000
    hits = 0
    stream = coloring_stream(20240808, g.n)
    for _ in range(trials):
        sol = search_with_coloring(g, k, b, p, next(stream))
        if sol is not None:
            assert verify_solution(inst, sol)
            hits += 1
    floor = 2.0 ** (-(delta + 1) * q) / 2.0
    rate = hits / trials
    ok = 0 if rate >= floor else 1
    _report(
        8,
        "seeded trials: sound hits only, rate above the floor",
        ok,
        f"(rate {rate:.4f} >= {floor:.6f})",
    )
