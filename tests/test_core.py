import random
from collections import Counter

import pytest

from dakc import (
    DirectedGraph,
    Instance,
    OracleBudgetError,
    Solution,
    Verdict,
    normalize,
    oracle_solve,
    peel,
    solution_violation,
    to_bidirected,
    verify_solution,
    vertices_of,
    vset,
)
from dakc.core import _withdraw, anchor_subset_count
from dakc.reductions import (
    CnfFormula,
    SetCoverInstance,
    amplify_k,
    gen_from_clique,
    gen_from_sat,
    gen_from_setcover,
)
from helpers import (
    cycle_graph,
    cycle_with_pendants,
    oracle_reference,
    path_graph,
    peel_in_order,
    random_digraph,
    solution_violation_reference,
    random_restricted_cnf,
    undirected_akc_brute_force,
)


def test_peel_examples():
    path = path_graph(3)
    assert peel(path, 1) == 0
    assert peel(path, 1, vset([0])) == vset([0, 1, 2])
    cyc = cycle_graph(3)
    assert peel(cyc, 1) == vset([0, 1, 2])
    assert peel(cyc, 2) == 0
    assert peel(path, 0) == peel(path, -1) == vset([0, 1, 2])


def test_verify_examples():
    inst = Instance(graph=path_graph(3), b=1, k=1, p=3)
    assert verify_solution(inst, Solution(anchors=vset([0]), core=vset([0, 1, 2])))
    assert not verify_solution(inst, Solution(anchors=0, core=vset([0, 1, 2])))
    assert not verify_solution(inst, Solution(anchors=vset([0]), core=vset([0, 1])))


def test_normalize_examples():
    g = path_graph(3)
    v = normalize(Instance(graph=g, b=0, k=1, p=4))
    assert isinstance(v, Verdict) and v.kind == "no"
    v = normalize(Instance(graph=cycle_graph(3), b=3, k=5, p=3))
    assert isinstance(v, Verdict) and v.is_yes
    assert v.solution.anchors == v.solution.core == vset([0, 1, 2])
    out = normalize(Instance(graph=g, b=1, k=1, p=3))
    assert isinstance(out, Instance) and out == Instance(graph=g, b=1, k=1, p=3)


def test_normalize_k0_yes_without_anchors():
    v = normalize(Instance(graph=path_graph(3), b=0, k=0, p=2))
    assert isinstance(v, Verdict) and v.is_yes
    assert v.solution.anchors == 0 and v.solution.core == vset([0, 1])


def test_oracle_examples():
    path = path_graph(3)
    v = oracle_solve(Instance(graph=path, b=1, k=1, p=3))
    assert v.is_yes and v.solution.anchors == vset([0])
    assert oracle_solve(Instance(graph=path, b=0, k=1, p=1)).kind == "no"
    v = oracle_solve(Instance(graph=cycle_graph(3), b=0, k=1, p=3))
    assert v.is_yes and v.solution.anchors == 0


def test_oracle_budget_cap():
    g = random_digraph(random.Random(1), 12, 0.2)
    with pytest.raises(OracleBudgetError):
        oracle_solve(Instance(graph=g, b=6, k=1, p=12), cap=100)
    # only the 3 pendants are candidates, but the cap counts anchor sets over
    # all 23 vertices
    g = cycle_with_pendants()
    inst = Instance(graph=g, b=3, k=1, p=23)
    assert peel(g, 1).bit_count() == 20
    total = anchor_subset_count(23, 3)
    with pytest.raises(OracleBudgetError):
        oracle_solve(inst, cap=total - 1)
    assert oracle_solve(inst, cap=total).solution.anchors == vset([20, 21, 22])


def test_oracle_matches_plain_enumeration():
    # whole verdicts, so the witness anchors and core must match too; a dense
    # block on the low ids gives many graphs an unanchored core to bank
    rng = random.Random(43)
    pool = []
    for _ in range(2000):
        n = rng.randint(1, 11)
        dense = rng.randint(0, n)
        g = DirectedGraph.from_arcs(n, [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < (0.6 if max(u, v) < dense else 0.2)
        ])
        b = rng.randint(0, 4)
        p = rng.randint(min(b + 1, n), n)
        pool.append(Instance(graph=g, b=b, k=rng.randint(1, 3), p=p))
    banked = [peel(inst.graph, inst.k) for inst in pool]
    assert sum(k0 != 0 for k0 in banked) >= 0.25 * len(pool)
    assert sum(0 < k0.bit_count() < inst.p for k0, inst in zip(banked, pool)) >= 0.05 * len(pool)
    for inst in pool:
        assert oracle_solve(inst) == oracle_reference(inst)


def test_peel_confluence_under_random_orders():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(1, 10)
        g = random_digraph(rng, n, rng.uniform(0.1, 0.5))
        k = rng.randint(1, 3)
        anchors = vset(v for v in range(n) if rng.random() < 0.25)
        expected = peel(g, k, anchors)
        for _ in range(10):
            assert peel_in_order(g, k, anchors, rng) == expected


def test_peel_monotone_in_anchors():
    rng = random.Random(29)
    for _ in range(100):
        n = rng.randint(1, 9)
        g = random_digraph(rng, n, 0.3)
        k = rng.randint(1, 3)
        small = vset(v for v in range(n) if rng.random() < 0.2)
        extra = vset(v for v in range(n) if rng.random() < 0.2)
        assert peel(g, k, small) & peel(g, k, small | extra) == peel(g, k, small)


def test_peel_is_unique_maximal_valid_set():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 8)
        g = random_digraph(rng, n, 0.3)
        k = rng.randint(1, 2)
        anchors = vset(v for v in range(n) if rng.random() < 0.25)
        result = peel(g, k, anchors)
        assert anchors & ~result == 0
        for cand in range(1 << n):
            valid = all(
                (g.in_mask[v] & cand).bit_count() >= k
                for v in vertices_of(cand & ~anchors)
            )
            if valid:
                assert cand & ~result == 0  # every valid set sits inside the peel
        # the peel itself is valid
        assert all(
            (g.in_mask[v] & result).bit_count() >= k
            for v in vertices_of(result & ~anchors)
        )


def test_undirected_modeling_equivalence():
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randint(1, 7)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        ]
        g = to_bidirected(n, edges)
        b = rng.randint(0, 2)
        k = rng.randint(1, 3)
        p = rng.randint(1, n)
        directed = oracle_solve(Instance(graph=g, b=b, k=k, p=p)).is_yes
        assert directed == undirected_akc_brute_force(n, edges, b, k, p)


def test_oracle_self_certification():
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randint(1, 8)
        g = random_digraph(rng, n, 0.3)
        inst = Instance(
            graph=g, b=rng.randint(0, 3), k=rng.randint(1, 3), p=rng.randint(1, n)
        )
        v = oracle_solve(inst)
        if v.is_yes:
            assert verify_solution(inst, v.solution)


def test_oracle_witness_is_first_in_size_lex_order():
    # anchoring vertex 1 alone engages the 4-path; so must the oracle witness
    g = path_graph(4)
    v = oracle_solve(Instance(graph=g, b=2, k=1, p=4))
    assert v.solution.anchors == vset([0])


def test_solution_violation_matches_reference():
    # valid witnesses from a peel, random cores, and each valid witness
    # perturbed four ways; the first violation's message must match exactly
    rng = random.Random(149)
    messages = set()
    for _ in range(500):
        n = rng.randint(1, 14)
        g = random_digraph(rng, n, rng.uniform(0.05, 0.5))
        k = rng.randint(1, 3)
        anchors = vset(v for v in range(n) if rng.random() < 0.3)
        core = peel(g, k, anchors)
        p = rng.randint(1, max(1, core.bit_count()))
        inst = Instance(graph=g, b=anchors.bit_count(), k=k, p=p)
        members = vertices_of(core)
        guarded = [v for v in vertices_of(anchors) if (g.in_mask[v] & core).bit_count() < k]
        cases = [
            (inst, Solution(anchors=anchors, core=core)),
            (inst, Solution(anchors=anchors & core, core=rng.getrandbits(n))),
            (inst, Solution(anchors=anchors, core=core | 1 << (n + rng.randint(0, 70)))),
        ]
        if members:
            v = rng.choice(members)
            cases.append((inst, Solution(anchors=anchors & ~(1 << v), core=core & ~(1 << v))))
        if anchors:
            tight = Instance(graph=g, b=anchors.bit_count() - 1, k=k, p=1)
            cases.append((tight, Solution(anchors=anchors, core=core)))
        if guarded:
            cases.append((inst, Solution(anchors=anchors & ~(1 << rng.choice(guarded)), core=core)))
        for case in cases:
            got = solution_violation(*case)
            assert got == solution_violation_reference(*case)
            messages.add(got if got is None else got.split(" ")[0])
    assert messages == {None, "solution", "anchors", "anchor", "core", "non-anchor"}


def _brute_violation(n, arcs, inst, sol):
    """``solution_violation`` with each in-degree counted arc by arc from
    the arc list the graph was built from."""
    members = [v for v in range(n) if sol.core >> v & 1]
    if sol.core >> n or sol.anchors >> n:
        return "solution names vertices outside the graph"
    if sol.anchors & ~sol.core:
        return "anchors are not a subset of the core"
    if sol.anchors.bit_count() > inst.b:
        return f"anchor count {sol.anchors.bit_count()} exceeds budget {inst.b}"
    if len(members) < inst.p:
        return f"core size {len(members)} is below target {inst.p}"
    for v in members:
        if not sol.anchors >> v & 1 and sum((u, v) in arcs for u in members) < inst.k:
            return f"non-anchor vertex {v + 1} has in-degree below {inst.k} inside the core"
    return None


def test_solution_violation_matches_a_brute_in_degree_count():
    # the witness check's tally over the arc arrays against in-degrees
    # counted arc by arc: empty cores, cores holding vertex n - 1 (the core
    # mask's top bit), peels that should pass, graphs past one 64-bit word,
    # and anchors inside and outside the core
    rng = random.Random(151)
    tally = Counter()
    for _ in range(800):
        n = rng.randint(1, 14) if rng.random() < 0.8 else rng.randint(60, 140)
        density = rng.uniform(0.05, 0.5) if n <= 14 else rng.uniform(1, 4) / n
        arcs = {(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < density}
        g = DirectedGraph.from_arcs(n, arcs)
        k = rng.randint(1, 3)
        shape = rng.choice(("empty", "last", "peel", "random"))
        seed = rng.getrandbits(n)
        if shape == "empty":
            core = 0
        elif shape == "last":
            core = rng.getrandbits(n) | 1 << (n - 1)
        elif shape == "peel":
            core = peel(g, k, seed)
        else:
            core = rng.getrandbits(n)
        if rng.random() < 0.3:
            anchors = rng.getrandbits(n)
        else:
            anchors = seed if shape == "peel" else core & seed
        p = rng.choice((1, max(1, core.bit_count())))
        inst = Instance(graph=g, b=n, k=k, p=p)
        sol = Solution(anchors=anchors, core=core)
        got = solution_violation(inst, sol)
        assert got == _brute_violation(n, arcs, inst, sol)
        tally[shape, got if got is None else got.split(" ")[0]] += 1
        tally["outside"] += bool(anchors & ~core)
        tally["past_word", got is None or got.startswith("non-anchor")] += n > 64
    assert tally["empty", "core"] >= 100 and tally["outside"] >= 120
    assert tally["last", "non-anchor"] >= 80 and tally["last", None] >= 20
    assert tally["random", "non-anchor"] >= 60 and tally["peel", None] >= 100
    assert tally["past_word", True] >= 40


def _peel_state(g, k, core):
    """The weak set and in-degree list of a peel, counted directly."""
    indeg = [(g.in_mask[v] & core).bit_count() for v in range(g.n)]
    weak = vset(v for v in vertices_of(core) if indeg[v] < k)
    return weak, indeg


def test_withdraw_matches_peel_of_the_smaller_anchor_set():
    # a chain of nested anchor sets, each withdrawal starting from the state
    # the previous one left, as the oracle's search does
    rng = random.Random(59)
    removing = 0
    for _ in range(600):
        n = rng.randint(1, 14)
        g = random_digraph(rng, n, rng.uniform(0.1, 0.5))
        k = rng.randint(1, 3)
        anchors = vset(v for v in range(n) if rng.random() < 0.6)
        core = peel_in_order(g, k, anchors, rng)
        weak, indeg = _peel_state(g, k, core)
        while anchors:
            kept = vset(v for v in vertices_of(anchors) if rng.random() < 0.6)
            before = core
            core, weak = _withdraw(g.out_adj, k, core, weak, indeg, kept, anchors & ~kept)
            anchors = kept
            expected = peel_in_order(g, k, anchors, rng)
            assert core == expected
            expected_weak, expected_indeg = _peel_state(g, k, expected)
            assert weak == expected_weak
            assert all(indeg[v] == expected_indeg[v] for v in vertices_of(core))
            removing += core != before
    assert removing >= 600


def _withdraw_chain(rng, g, k, anchors, kept, core, tally):
    """Withdraw down a chain of nested anchor sets from ``core``, the peel of
    ``anchors``: to ``kept`` first, then to random subsets, each step from the
    state the previous one left and with a random floor.  A peel of at least
    floor vertices must come back exact, a smaller one as None; a stopped
    queue is then rerun with no floor.  ``tally`` counts the cases."""
    weak, indeg = _peel_state(g, k, core)
    while anchors:
        drop = anchors & ~kept
        tally["straddled"] += (drop & weak) >> 63 & 3 == 3
        tally["past_word"] += (drop & weak).bit_length() > 64
        expected = peel_in_order(g, k, kept, rng)
        size = expected.bit_count()
        floor = rng.choice((0, size, size + 1, rng.randint(0, g.n + 1)))
        trial = indeg.copy()
        got = _withdraw(g.out_adj, k, core, weak, trial, kept, drop, floor)
        if size < floor:
            assert got is None
            tally["stopped"] += 1
            got = _withdraw(g.out_adj, k, core, weak, indeg, kept, drop)
            tally["stopped_early"] += trial != indeg
        else:
            tally["exact_at_floor"] += size == floor
            indeg = trial
        core, weak = got
        anchors = kept
        assert core == expected
        expected_weak, expected_indeg = _peel_state(g, k, expected)
        assert weak == expected_weak
        assert all(indeg[v] == expected_indeg[v] for v in vertices_of(core))
        kept = vset(v for v in vertices_of(anchors) if rng.random() < 0.6)


def test_withdraw_with_a_floor_stops_only_below_it():
    # the same nested chains, each step with a random floor: a peel of at
    # least floor vertices comes back exact, a smaller one as None, and a
    # stopped queue leaves the in-degrees short of the full withdrawal's
    rng = random.Random(67)
    tally = Counter()
    for _ in range(600):
        n = rng.randint(1, 14)
        g = random_digraph(rng, n, rng.uniform(0.1, 0.5))
        k = rng.randint(1, 3)
        anchors = vset(v for v in range(n) if rng.random() < 0.6)
        core = peel_in_order(g, k, anchors, rng)
        kept = vset(v for v in vertices_of(anchors) if rng.random() < 0.6)
        _withdraw_chain(rng, g, k, anchors, kept, core, tally)
    assert tally["exact_at_floor"] >= 600
    assert tally["stopped"] >= 800
    assert tally["stopped_early"] >= 250


def test_withdraw_past_one_word_matches_peel():
    # the floor test's chains on graphs of 65 to 300 vertices, so seeds and
    # cores run past one 64-bit word.  A window of source vertices around
    # bits 63 and 64 is anchored, so it is weak, and the first step drops
    # all of it: that seed straddles the word boundary.  Each graph's own
    # peel seed, every deficient non-anchor, is checked too; some are long
    # and dense, so ``vertices_of`` reads them in its linear pass.
    rng = random.Random(73)
    tally = Counter()
    dense_peels = 0
    for _ in range(12):
        n = rng.randint(65, 300)
        lo = rng.randint(57, 63)
        window = range(lo, rng.randint(65, 70))
        arcs = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and v not in window and rng.random() < 2.5 / n
        ]
        g = DirectedGraph.from_arcs(n, arcs)
        k = rng.randint(1, 3)
        anchors = vset(window) | vset(v for v in range(n) if rng.random() < 0.6)
        seed = g.in_degree_below[k] & ~anchors
        dense_peels += seed.bit_length() > 64 and seed.bit_count() * 16 > seed.bit_length()
        core = peel(g, k, anchors)
        assert core == peel_in_order(g, k, anchors, rng)
        _withdraw_chain(rng, g, k, anchors, anchors & ~vset(window), core, tally)
    assert tally["straddled"] == 12
    assert tally["past_word"] >= 80
    assert tally["stopped"] >= 50
    assert dense_peels >= 6


def _gadget_pool():
    """Reduction gadgets with K0 = 0, small enough for ``oracle_reference``,
    each asked at several budgets up to 4 and several targets."""
    rng = random.Random(61)
    gadgets = []
    for _ in range(12):
        num_vars, clauses = random_restricted_cnf(rng, rng.randint(2, 3), 3)
        gadgets.append(gen_from_sat(CnfFormula(num_vars, clauses), k=1).instance)
    for _ in range(12):
        n = rng.randint(4, 5)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        gadgets.append(gen_from_clique(n, edges, b=rng.randint(2, 3), k=2).instance)
    for budget in (0, 1):
        cover = SetCoverInstance(universe=1, sets=(vset([0]),), budget=budget)
        gadgets.append(amplify_k(gen_from_setcover(cover).instance, k=2, delta=5).instance)
    pool = []
    for gadget in gadgets:
        g, k = gadget.graph, gadget.k
        assert peel(g, k) == 0
        for b in sorted({gadget.b - 1, gadget.b, min(gadget.b + 1, 4)}):
            for p in sorted({b + 1, (b + 1 + gadget.p) // 2, gadget.p, gadget.p + 1}):
                if p <= g.n:
                    pool.append(Instance(graph=g, b=b, k=k, p=p))
    return pool


def test_oracle_matches_plain_enumeration_on_reduction_gadgets():
    # with K0 = 0 every vertex is a candidate, so top = min(n, b) = b
    below_top = no_with_budget = 0
    for inst in _gadget_pool():
        got = oracle_solve(inst)
        assert got == oracle_reference(inst)
        if got.is_yes:
            below_top += got.solution.anchors.bit_count() < inst.b
        else:
            no_with_budget += inst.b >= 2
    assert below_top >= 50
    assert no_with_budget >= 40
