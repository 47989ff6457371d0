import gc
import random
import weakref
from collections import Counter
from itertools import combinations

import pytest

from dakc import (
    DirectedGraph,
    Instance,
    oracle_solve,
    parse_instance_text,
    partial_set_cover,
    peel,
    reach,
    serialize_instance,
    solve,
    solve_k1,
    verify_solution,
    vset,
)
from dakc import solver_k1
from dakc.reductions import SetCoverInstance, gen_from_setcover
from dakc.solver_dag import is_acyclic
from dakc.solver_k1 import _plan
from helpers import cycle_closure, cycle_graph, k1_reference, random_digraph


def test_solve_k1_examples():
    # two sources: s1 -> a, s2 -> b, s2 -> c
    g = DirectedGraph.from_arcs(5, [(0, 2), (1, 3), (1, 4)])
    v = solve_k1(Instance(graph=g, b=1, k=1, p=3))
    assert v.is_yes and v.solution.anchors == vset([1])
    assert v.solution.core == vset([1, 3, 4])

    cyc_tail = DirectedGraph.from_arcs(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    v = solve_k1(Instance(graph=cyc_tail, b=0, k=1, p=4))
    assert v.is_yes and v.solution.anchors == 0

    two_pairs = DirectedGraph.from_arcs(4, [(0, 2), (1, 3)])
    assert solve_k1(Instance(graph=two_pairs, b=1, k=1, p=4)).kind == "no"


def test_solve_k1_tops_up_the_bank_when_the_budget_covers_the_gap():
    # the 3-cycle is banked, and b = p - |bank| = 1 lets one anchor close
    # the gap: the lowest residual vertex, not the source the cover search
    # would pick, whose reach engages the whole graph
    g = DirectedGraph.from_arcs(5, [(0, 1), (1, 2), (2, 0), (4, 3)])
    v = solve_k1(Instance(graph=g, b=1, k=1, p=4))
    assert v.is_yes
    assert v.solution.anchors == vset([3]) and v.solution.core == vset([0, 1, 2, 3])


def test_solve_k1_rejects_other_thresholds():
    with pytest.raises(ValueError, match="k = 1"):
        solve_k1(Instance(graph=cycle_graph(3), b=1, k=2, p=2))


def test_partial_set_cover_examples():
    sets = (vset([0, 1]), vset([1, 2]))
    assert partial_set_cover(sets, 1, 2) == {0}
    assert partial_set_cover(sets, 1, 3) is None
    assert partial_set_cover((), 0, 0) == set()


def test_partial_set_cover_matches_subset_search():
    rng = random.Random(47)
    for _ in range(120):
        universe = rng.randint(1, 8)
        r = rng.randint(0, 7)
        sets = tuple(
            vset(e for e in range(universe) if rng.random() < 0.4) for _ in range(r)
        )
        budget = rng.randint(0, 4)
        target = rng.randint(0, universe)
        got = partial_set_cover(sets, budget, target)
        best = None
        for size in range(min(budget, r) + 1):
            for combo in combinations(range(r), size):
                mask = 0
                for i in combo:
                    mask |= sets[i]
                if mask.bit_count() >= target:
                    best = set(combo)
                    break
            if best is not None:
                break
        if best is None:
            assert got is None
        else:
            assert got is not None and len(got) <= budget
            covered = 0
            for i in got:
                covered |= sets[i]
            assert covered.bit_count() >= target
            assert got == best  # smallest size, lexicographically first


def test_partial_set_cover_answers_alike_with_shared_records():
    # one records dict across every (budget, target) of a family, asked in
    # shuffled order, must give what a call without records gives
    rng = random.Random(43)
    for _ in range(200):
        universe = rng.randint(1, 8)
        sets = tuple(
            vset(e for e in range(universe) if rng.random() < 0.4) for _ in range(rng.randint(0, 7))
        )
        queries = [(budget, target) for budget in range(5) for target in range(-1, universe + 2)]
        rng.shuffle(queries)
        records = {}
        for budget, target in queries:
            assert partial_set_cover(sets, budget, target, records) == partial_set_cover(sets, budget, target)


def test_rising_unions_lists_each_record_union_once():
    # a search yields, in lexicographic order, each selection whose union
    # beats the floor and every earlier union: strictly rising, so no union
    # is listed twice
    rng = random.Random(41)
    for _ in range(300):
        universe = rng.randint(1, 8)
        sets = tuple(
            vset(e for e in range(universe) if rng.random() < 0.4) for _ in range(rng.randint(0, 7))
        )
        size = rng.randint(0, len(sets))
        floor = rng.randint(-1, universe)
        expect, best = [], floor
        for combo in combinations(range(len(sets)), size):
            union = 0
            for i in combo:
                union |= sets[i]
            if union.bit_count() > best:
                best = union.bit_count()
                expect.append((best, combo))
        assert list(solver_k1._rising_unions(sets, size, floor)) == expect


class _Counted(tuple):
    """Sets that count how often a search reads them."""

    reads = 0

    def __getitem__(self, i):
        _Counted.reads += 1
        return tuple.__getitem__(self, i)


def test_cover_yes_stops_at_its_first_cover():
    # ROADMAP item 15(a)'s disjoint arcs, at most 4 of 160: the first cover of
    # 5 elements is (0, 1, 2).  Deciding the smaller sizes reads the sets
    # about 13k times, while going on to prove the union of 8 the largest at
    # size 4 would visit every selection of 3 arcs, about 670k of them
    arcs = _Counted(vset((2 * i, 2 * i + 1)) for i in range(160))
    _Counted.reads = 0
    assert partial_set_cover(arcs, 4, 5) == {0, 1, 2}
    assert _Counted.reads < 100_000


def test_cover_search_cuts_a_bound_equal_to_its_floor():
    # 100 copies of one pair never cover 3 elements: the bound of the root's
    # first branch is 2, the floor, so that cut ends the search at once;
    # a cut only below the floor would visit every selection of 3
    pairs = _Counted([vset([0, 1])] * 100)
    _Counted.reads = 0
    assert partial_set_cover(pairs, 3, 3) is None
    assert _Counted.reads <= 200


def test_cover_search_cut_short_proves_no_no():
    # a search that raises is dropped from the records: kept, it would look
    # run out, and the next query would read a NO from it
    class Flaky(tuple):
        fail_at = 50

        def __getitem__(self, i):
            Flaky.fail_at -= 1
            if Flaky.fail_at == 0:
                raise KeyboardInterrupt
            return tuple.__getitem__(self, i)

    arcs = Flaky(vset((2 * i, 2 * i + 1)) for i in range(80))
    records = {}
    with pytest.raises(KeyboardInterrupt):
        partial_set_cover(arcs, 3, 6, records)
    assert partial_set_cover(arcs, 3, 6, records) == {0, 1, 2}


def test_cover_records_resume_a_search_and_keep_its_end():
    # a YES leaves its search paused at the first cover; a higher target
    # resumes it, and once it runs out every target above its last union is
    # a NO with no new search
    sets = (vset([0]), vset([1, 2]), vset([0, 3]), vset([1, 2, 3, 4]))
    records = {}
    assert partial_set_cover(sets, 1, 2, records) == {1}
    floor, listed, rest = records[1]
    assert (floor, listed) == (1, [(2, (1,))])
    assert partial_set_cover(sets, 1, 3, records) == {3}
    assert records[1][1] == [(2, (1,)), (4, (3,))]
    assert partial_set_cover(sets, 1, 5, records) is None
    assert next(rest, None) is None
    assert records[1][0] == 1 and partial_set_cover(sets, 1, 7, records) is None
    assert partial_set_cover(sets, 1, 1, records) == {0}  # at the floor: a new search
    assert records[1][0] == 0


def test_solve_k1_matches_oracle():
    rng = random.Random(53)
    for _ in range(200):
        n = rng.randint(1, 10)
        g = random_digraph(rng, n, rng.uniform(0.05, 0.5))
        inst = Instance(graph=g, b=rng.randint(0, 3), k=1, p=rng.randint(1, n))
        expect = oracle_solve(inst)
        got = solve_k1(inst)
        assert got.kind == expect.kind
        if got.is_yes:
            assert verify_solution(inst, got.solution)


def test_solve_k1_matches_oracle_with_planted_cycles():
    # force the cyclic-region preprocessing to fire
    rng = random.Random(59)
    for _ in range(80):
        n = rng.randint(4, 9)
        g = random_digraph(rng, n, 0.2)
        cyc = [(0, 1), (1, 2), (2, 0)]
        arcs = set(g.arcs()) | set(cyc)
        g = DirectedGraph.from_arcs(n, sorted(arcs))
        inst = Instance(graph=g, b=rng.randint(0, 2), k=1, p=rng.randint(1, n))
        expect = oracle_solve(inst)
        got = solve_k1(inst)
        assert got.kind == expect.kind
        if got.is_yes:
            assert verify_solution(inst, got.solution)


def test_solve_k1_matches_reference_algorithm():
    # whole verdicts: banking by peel and taking reach sets within the
    # residual must pick the same anchors and core as rebuilding the residual
    # DAG as a subgraph; half the graphs get a planted cycle to bank
    rng = random.Random(61)
    pool = []
    for i in range(2000):
        n = rng.randint(1, 12)
        arcs = set(random_digraph(rng, n, rng.uniform(0.03, 0.3)).arcs())
        if i % 2 and n >= 2:
            cyc = rng.sample(range(n), rng.randint(2, min(4, n)))
            arcs |= {(u, cyc[(j + 1) % len(cyc)]) for j, u in enumerate(cyc)}
        g = DirectedGraph.from_arcs(n, sorted(arcs))
        b = rng.randint(0, 3)
        pool.append(Instance(graph=g, b=b, k=1, p=rng.randint(min(b + 1, n), n)))
    assert sum(peel(inst.graph, 1) != 0 for inst in pool) >= 0.25 * len(pool)
    for inst in pool:
        assert solve_k1(inst) == k1_reference(inst)


def test_peel_at_threshold_one_is_the_cycle_closure():
    rng = random.Random(67)
    for _ in range(500):
        g = random_digraph(rng, rng.randint(0, 14), rng.uniform(0.02, 0.4))
        closure = cycle_closure(g)
        assert peel(g, 1) == closure
        assert is_acyclic(g) == (closure == 0)


def test_plan_memo_keeps_graphs_apart_and_never_alive():
    # same vertex count, different plans: two paths, and the same with the
    # first path closed into a cycle that banks three vertices
    paths = DirectedGraph.from_arcs(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    looped = DirectedGraph.from_arcs(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)])

    def alternate() -> None:
        for b in range(3):
            for p in range(1, 7):
                for g in (paths, looped, paths):
                    inst = Instance(graph=g, b=b, k=1, p=p)
                    assert solve_k1(inst) == k1_reference(inst)
        assert solve_k1(Instance(graph=paths, b=1, k=1, p=6)).kind == "no"
        assert solve_k1(Instance(graph=looped, b=1, k=1, p=6)).is_yes

    alternate()
    refs = [weakref.ref(paths), weakref.ref(looped)]
    del paths, looped
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_plan_reach_sweep_matches_one_walk_per_source():
    # one sweep must bank what threshold-1 peeling keeps, take the in-degree-0
    # vertices as sources, and give every source the set a walk confined to
    # the residual finds.  Graphs whose ids are a topological order take the
    # pass over the arcs, any other graph the Kahn sweep; both are checked
    rng = random.Random(71)
    graphs = []
    for _ in range(100):
        universe = rng.randint(1, 3)
        sets = [vset(rng.sample(range(universe), rng.randint(1, universe))) for _ in range(rng.randint(1, 4))]
        sets.append((1 << universe) - 1)  # every element is covered
        cover = SetCoverInstance(universe=universe, sets=tuple(sets), budget=rng.randint(0, 2))
        graphs.append(gen_from_setcover(cover).instance.graph)
    for _ in range(120):
        graphs.append(random_digraph(rng, rng.randint(0, 16), rng.uniform(0.03, 0.3)))
    for _ in range(200):
        # a random topological order, dense enough that sources share
        # descendants; half keep the ids in that order, half shuffle them
        n = rng.randint(2, 18)
        order = rng.sample(range(n), n) if len(graphs) % 2 else list(range(n))
        arcs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.25]
        graphs.append(DirectedGraph.from_arcs(n, arcs))
    tally = Counter()
    for g in graphs:
        plan = _plan(g)
        assert plan.banked == peel(g, 1)
        assert plan.sources == tuple(v for v in range(g.n) if not g.in_degrees[v])
        residual = g.full_mask & ~plan.banked
        walks = tuple(reach(g, 1 << s, "forward", within=residual) for s in plan.sources)
        assert plan.reach_sets == walks
        topological = all(u < v for u, v in g.arcs())
        tally["topological", g.arc_count() > 0] += topological
        tally["kahn", is_acyclic(g)] += not topological
        tally["banking"] += plan.banked != 0
        tally["sharing"] += any(a & b for a, b in combinations(walks, 2))
    assert tally["banking"] >= 30 and tally["sharing"] >= 100
    assert tally["topological", True] >= 100
    assert tally["kahn", True] >= 80 and tally["kahn", False] >= 30


def test_topological_k1_graph_never_builds_out_adjacency():
    # a set-cover gadget's ids run from sets to elements, a topological
    # order: reading it, solving it, bisecting its maximum and checking the
    # witnesses all work from the arc arrays alone
    cover = SetCoverInstance(universe=6, sets=(0b000111, 0b011100, 0b110001, 0b101010), budget=2)
    inst = gen_from_setcover(cover).instance
    g = parse_instance_text(serialize_instance(inst.graph)).graph
    assert all(u < v for u, v in g.arcs())
    kinds = set()
    for p in range(1, g.n + 1):
        step = Instance(graph=g, b=inst.b, k=1, p=p)
        verdict = solve(step)
        kinds.add(verdict.kind)
        assert not verdict.is_yes or verify_solution(step, verdict.solution)
    assert kinds == {"yes", "no"} and "k1_plan" in g.__dict__
    assert "out_adj" not in g.__dict__


def test_reused_plan_answers_every_query_as_a_fresh_graph(monkeypatch):
    # every (b, p) asked of one graph object, in shuffled order, must give the
    # verdict the reference gives on a fresh copy; and the plan's records must
    # decide a fixed share of the cover queries with no search started or
    # resumed, so a plan that ignores its records fails as well as one that
    # misreads them
    covers, searches = [], []
    real_cover, real_search = solver_k1.partial_set_cover, solver_k1._rising_unions

    def spied_search(*a):
        found = real_search(*a)
        while True:
            searches.append(a)
            item = next(found, None)
            if item is None:
                return
            yield item

    monkeypatch.setattr(solver_k1, "partial_set_cover", lambda *a: covers.append(a) or real_cover(*a))
    monkeypatch.setattr(solver_k1, "_rising_unions", spied_search)
    rng = random.Random(73)
    graphs = []
    for _ in range(75):
        universe = rng.randint(1, 2)
        sets = [vset(rng.sample(range(universe), rng.randint(1, universe))) for _ in range(rng.randint(1, 3))]
        sets.append((1 << universe) - 1)
        cover = SetCoverInstance(universe=universe, sets=tuple(sets), budget=0)
        graphs.append(gen_from_setcover(cover).instance.graph)
    for _ in range(75):
        # a random topological order, dense enough that sources share descendants
        n = rng.randint(2, 18)
        order = rng.sample(range(n), n)
        arcs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.25]
        graphs.append(DirectedGraph.from_arcs(n, arcs))
    asked = decided = 0
    for g in graphs:
        fresh = DirectedGraph.from_arcs(g.n, list(g.arcs()))
        queries = [(b, p) for b in range(5) for p in range(1, g.n + 1)]
        rng.shuffle(queries)
        for b, p in queries:
            expect = k1_reference(Instance(graph=fresh, b=b, k=1, p=p))
            before = len(covers), len(searches)
            assert solve_k1(Instance(graph=g, b=b, k=1, p=p)) == expect
            if len(covers) > before[0]:
                asked += 1
                decided += len(searches) == before[1]
    assert asked >= 5000 and decided >= 0.75 * asked
