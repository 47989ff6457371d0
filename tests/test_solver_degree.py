import random

import pytest

from dakc import separators, solver_degree
from dakc import (
    CyclicGraphError,
    DirectedGraph,
    Instance,
    Stripped,
    Verdict,
    oracle_solve,
    solve,
    solve_by_degree,
    solve_dag,
    solve_half_k,
    solve_high_k,
    strip_special_components,
    verify_solution,
    vertices_of,
    vset,
)
from dakc.graph import reach
from helpers import (
    cut_fits_reference,
    cycle_graph,
    disjoint_paths_reference,
    min_cut_from_source_reference,
    path_graph,
    random_dag_degree_capped,
    random_digraph_degree_capped,
    ring_digraph,
    ring_instance,
    stage3_only,
    stage3_reference,
    without_arcs_reference,
)

def test_strip_examples():
    v = strip_special_components(Instance(graph=cycle_graph(3), b=0, k=1, p=3))
    assert isinstance(v, Verdict) and v.is_yes
    assert v.solution.anchors == 0 and v.solution.core == vset([0, 1, 2])

    cyc_plus_path = DirectedGraph.from_arcs(5, [(0, 1), (1, 2), (2, 0), (3, 4)])
    out = strip_special_components(Instance(graph=cyc_plus_path, b=1, k=1, p=5))
    assert isinstance(out, Stripped)
    assert out.removed == vset([0, 1, 2])
    assert out.instance.p == 2 and out.instance.graph.n == 2
    # oracle on the original agrees with oracle on the reduced plus the banked part
    orig = oracle_solve(Instance(graph=cyc_plus_path, b=1, k=1, p=5))
    reduced = oracle_solve(out.instance)
    assert orig.kind == reduced.kind == "yes"

    out = strip_special_components(Instance(graph=path_graph(2), b=1, k=1, p=2))
    assert isinstance(out, Stripped) and out.removed == 0
    assert out.instance.graph == path_graph(2)


def test_strip_lifts_later_immediate_yes_through_removals():
    two_cycles = DirectedGraph.from_arcs(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    v = strip_special_components(Instance(graph=two_cycles, b=0, k=1, p=6))
    assert isinstance(v, Verdict) and v.is_yes
    assert v.solution.core == vset(range(6))
    assert verify_solution(Instance(graph=two_cycles, b=0, k=1, p=6), v.solution)


def test_high_k_examples():
    join = DirectedGraph.from_arcs(3, [(0, 2), (1, 2)])
    v = solve_high_k(Instance(graph=join, b=2, k=2, p=3), max_degree=3)
    assert v.is_yes and v.solution.anchors == vset([0, 1])

    single = DirectedGraph.from_arcs(2, [(0, 1)])
    assert solve_high_k(Instance(graph=single, b=1, k=2, p=2)).kind == "no"

    assert solve_high_k(Instance(graph=join, b=0, k=2, p=1)).kind == "no"


def test_high_k_answers_yes_exactly_at_its_size_bound():
    # max degree 3 < 2k = 4, so every core has at most (3 + 1) * b = 4
    # vertices; p = 4 sits on that bound and is still reachable: anchor
    # vertex 0 and the 3-cycle 1 -> 2 -> 3 -> 1 gets its second in-arcs
    g = DirectedGraph.from_arcs(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1)])
    inst = Instance(graph=g, b=1, k=2, p=4)
    assert g.max_degree() == 3
    assert oracle_solve(inst).is_yes
    v = solve_high_k(inst)
    assert v.is_yes and verify_solution(inst, v.solution)


def test_high_k_contract_errors():
    g = cycle_graph(4)
    with pytest.raises(ValueError, match="2k > max degree"):
        solve_high_k(Instance(graph=g, b=1, k=1, p=2))
    with pytest.raises(ValueError, match="below the graph"):
        solve_high_k(Instance(graph=g, b=1, k=2, p=2), max_degree=1)


def test_half_k_examples():
    v = solve_half_k(Instance(graph=path_graph(3), b=1, k=1, p=3))
    assert v.is_yes

    cyc_iso = DirectedGraph.from_arcs(4, [(0, 1), (1, 2), (2, 0)])
    v = solve_half_k(Instance(graph=cyc_iso, b=0, k=1, p=3), max_degree=2)
    assert v.is_yes and v.solution.core == vset([0, 1, 2])

    single = DirectedGraph.from_arcs(2, [(0, 1)])
    v = solve_half_k(Instance(graph=single, b=0, k=1, p=1), max_degree=2)
    assert v.kind == "no"


def test_half_k_contract_error():
    with pytest.raises(ValueError, match="2k = max degree"):
        solve_half_k(Instance(graph=cycle_graph(3), b=1, k=2, p=2))


def test_half_k_stage3_finds_large_core():
    # a long path's only solution exceeds the bounded stage's reach when the
    # guessing stage is forced, so the separator pipeline must produce it
    g = path_graph(8)
    inst = Instance(graph=g, b=1, k=1, p=8)
    with stage3_only():
        v = solve_half_k(inst)
    assert v.is_yes
    assert verify_solution(inst, v.solution)
    assert v.solution.anchors == vset([0])


def test_half_k_stage3_soundness_in_isolation():
    rng = random.Random(73)
    for _ in range(60):
        n = rng.randint(2, 8)
        k = rng.choice([1, 2])
        g = random_digraph_degree_capped(rng, n, 2 * k, rng.uniform(0.2, 0.7))
        b = rng.randint(0, 2)
        p = rng.randint(1, n)
        inst = Instance(graph=g, b=b, k=k, p=p)
        with stage3_only():
            v = solve_half_k(inst, max_degree=2 * k)
        if v.is_yes:
            assert verify_solution(inst, v.solution)


def test_degree_sum_balance_on_found_solutions():
    rng = random.Random(79)
    checked = 0
    for _ in range(120):
        n = rng.randint(2, 9)
        k = rng.choice([1, 2])
        g = random_digraph_degree_capped(rng, n, 2 * k, rng.uniform(0.3, 0.8))
        inst = Instance(graph=g, b=rng.randint(0, 2), k=k, p=rng.randint(1, n))
        v = solve_half_k(inst, max_degree=2 * k)
        if not v.is_yes:
            continue
        core, anchors = v.solution.core, v.solution.anchors
        lhs = rhs = 0
        for u in vertices_of(core):
            din = (g.in_mask[u] & core).bit_count()
            dout = (g.out_mask[u] & core).bit_count()
            if (anchors >> u) & 1:
                rhs += dout - din
            else:
                lhs += din - dout
        assert lhs == rhs
        checked += 1
    assert checked >= 20


def test_high_k_matches_oracle():
    rng = random.Random(83)
    for _ in range(120):
        n = rng.randint(1, 9)
        k = rng.choice([2, 3])
        delta = 2 * k - rng.randint(1, 2)
        g = random_digraph_degree_capped(rng, n, delta, rng.uniform(0.2, 0.8))
        inst = Instance(graph=g, b=rng.randint(0, 2), k=k, p=rng.randint(1, n))
        got = solve_high_k(inst)
        expect = oracle_solve(inst)
        assert got.kind == expect.kind
        if got.is_yes:
            assert verify_solution(inst, got.solution)


def test_half_k_matches_oracle():
    rng = random.Random(89)
    for _ in range(120):
        n = rng.randint(1, 9)
        k = rng.choice([1, 2])
        g = random_digraph_degree_capped(rng, n, 2 * k, rng.uniform(0.2, 0.8))
        inst = Instance(graph=g, b=rng.randint(0, 2), k=k, p=rng.randint(1, n))
        got = solve_half_k(inst, max_degree=2 * k)
        expect = oracle_solve(inst)
        assert got.kind == expect.kind
        if got.is_yes:
            assert verify_solution(inst, got.solution)


def test_dispatch_rules():
    # k=1 routes to the threshold-1 solver regardless of degree
    star = DirectedGraph.from_arcs(6, [(0, i) for i in range(1, 6)])
    v = solve_by_degree(Instance(graph=star, b=1, k=1, p=6))
    assert v.solver == "k1" and v.is_yes

    join = DirectedGraph.from_arcs(3, [(0, 2), (1, 2)])
    v = solve_by_degree(Instance(graph=join, b=2, k=2, p=3))
    assert v.solver == "high" and v.is_yes

    # max degree 5 with k=2 is out of reach
    fan = DirectedGraph.from_arcs(6, [(i, 5) for i in range(5)])
    v = solve_by_degree(Instance(graph=fan, b=1, k=2, p=4))
    assert v.kind == "unsupported" and "W[2]" in v.note


def test_dispatch_matches_oracle_on_low_degree_graphs():
    rng = random.Random(97)
    for _ in range(100):
        n = rng.randint(1, 9)
        g = random_digraph_degree_capped(rng, n, 4, rng.uniform(0.2, 0.8))
        k = rng.choice([1, 2])
        inst = Instance(graph=g, b=rng.randint(0, 2), k=k, p=rng.randint(1, n))
        got = solve_by_degree(inst)
        assert got.kind != "unsupported"  # max degree <= 4 and k <= 2 is covered
        expect = oracle_solve(inst)
        assert got.kind == expect.kind
        if got.is_yes:
            assert verify_solution(inst, got.solution)



def _expected_route(inst: Instance, solver: str, allow_oracle: bool) -> str:
    g, b, k, p = inst.graph, inst.b, inst.k, inst.p
    if p > g.n or b >= p or k == 0:
        return "normalize"
    if k == 1:
        return "k1"
    if 2 * k > g.max_degree():
        return "high"
    if 2 * k == g.max_degree():
        return "half"
    if solver == "degree":
        return "unsupported"
    if _acyclic_by_sinks(g):
        return "dag"
    return "oracle" if allow_oracle else "unsupported"


def _acyclic_by_sinks(g: DirectedGraph) -> bool:
    # a graph is acyclic iff repeatedly deleting sinks empties it
    alive = set(range(g.n))
    while True:
        sinks = {v for v in alive if not any(w in alive for w in g.out_adj[v])}
        if not sinks:
            return not alive
        alive -= sinks


def test_solve_routes_match_oracle_and_stamp_the_route():
    rng = random.Random(409)
    seen = set()
    for i in range(240):
        n = rng.randint(1, 9)
        delta = rng.randint(1, 5)
        draw = random_dag_degree_capped if i % 2 else random_digraph_degree_capped
        g = draw(rng, n, delta, rng.uniform(0.3, 0.9))
        inst = Instance(graph=g, b=rng.randint(0, 2), k=rng.choice([1, 2, 3]), p=rng.randint(1, n + 1))
        expect = oracle_solve(inst)
        for solver, allow_oracle in (("auto", True), ("auto", False), ("degree", False)):
            got = solve(inst, solver=solver, allow_oracle=allow_oracle)
            route = _expected_route(inst, solver, allow_oracle)
            seen.add(route)
            if route == "unsupported":
                assert got.kind == "unsupported" and got.solver is None
                continue
            assert got.solver == route and got.kind == expect.kind
            if got.is_yes:
                assert verify_solution(inst, got.solution)
        assert solve_by_degree(inst) == solve(inst, solver="degree")
    assert seen == {"normalize", "k1", "high", "half", "dag", "oracle", "unsupported"}


def test_solve_named_solvers_skip_normalize():
    # b >= p: normalize would answer YES, but a named solver runs as is
    cyc = Instance(graph=cycle_graph(3), b=3, k=2, p=3)
    with pytest.raises(ValueError, match="k = 1"):
        solve(cyc, solver="k1")
    with pytest.raises(CyclicGraphError):
        solve(cyc, solver="dag")
    got = solve(cyc, solver="oracle")
    assert got.is_yes and got.solver == "oracle"
    assert solve(cyc).solver == "normalize" and solve(cyc, solver="degree").solver == "normalize"
    with pytest.raises(ValueError, match="unknown solver"):
        solve(cyc, solver="pieces")


def test_solve_unsupported_notes_name_their_way_out():
    # max degree 5 with k = 2 on a cyclic graph: no exact routine applies
    fan = DirectedGraph.from_arcs(7, [(i, 5) for i in range(5)] + [(5, 6), (6, 5)])
    inst = Instance(graph=fan, b=1, k=2, p=4)
    by_degree = solve(inst, solver="degree")
    auto = solve(inst)
    assert by_degree.kind == auto.kind == "unsupported"
    assert "exhaustive oracle handles small instances" in by_degree.note
    assert "--allow-oracle" in auto.note and auto.note != by_degree.note
    assert solve(inst, solver="auto", allow_oracle=True).solver == "oracle"


def test_without_arcs_matches_a_rebuilt_graph():
    # the adjacency tuples and the masks patched in place equal those of
    # the graph rebuilt from its remaining arcs
    rng = random.Random(233)
    for _ in range(200):
        g = random_digraph_degree_capped(rng, rng.randint(1, 12), 5, rng.uniform(0.2, 0.9))
        deleted = frozenset(a for a in g.arcs() if rng.random() < 0.3)
        got = solver_degree._without_arcs(g, deleted)
        expect = without_arcs_reference(g, deleted)
        assert got == expect
        assert got.out_mask == expect.out_mask and got.in_mask == expect.in_mask
        assert got.in_degrees == expect.in_degrees and got.und_mask == expect.und_mask


def _kernel_pool(regime: str, rng: random.Random, size: int) -> list[Instance]:
    pool = []
    for _ in range(size):
        n = rng.randint(3, 12)
        if regime == "high":
            k = rng.choice([2, 3])
            g = random_digraph_degree_capped(rng, n, 2 * k - rng.randint(1, 2), rng.uniform(0.3, 0.9))
        elif regime == "dag":
            k = rng.randint(1, 3)
            g = random_dag_degree_capped(rng, n, rng.randint(2, 5), rng.uniform(0.3, 0.9))
        else:
            k = rng.choice([1, 2])
            g = random_digraph_degree_capped(rng, n, 2 * k, rng.uniform(0.3, 0.9))
        pool.append(Instance(graph=g, b=rng.randint(0, 2), k=k, p=rng.randint(1, n)))
    return pool


@pytest.mark.parametrize("regime", ["high", "half", "stage3", "dag"])
def test_bounded_pipeline_matches_reference_kernels(monkeypatch, regime):
    # whole verdicts, notes included, with the min vertex cut, the stage-3
    # disjoint paths, the stage-3 flow repair and the stage-3 arc deletion
    # swapped for their plain references; every kind is the oracle's
    def solve(inst):
        if regime == "high":
            return solve_high_k(inst)
        if regime == "dag":
            return solve_dag(inst)
        if regime == "stage3":
            with stage3_only():
                return solve_half_k(inst, max_degree=2 * inst.k)
        return solve_half_k(inst, max_degree=2 * inst.k)

    pool = _kernel_pool(regime, random.Random(229), 150)
    got = [solve(inst) for inst in pool]
    monkeypatch.setattr(separators, "_min_vertex_cut", min_cut_from_source_reference)
    monkeypatch.setattr(solver_degree, "_without_arcs", without_arcs_reference)
    monkeypatch.setattr(solver_degree, "disjoint_paths", disjoint_paths_reference)
    monkeypatch.setattr(solver_degree, "_cut_fits", cut_fits_reference)
    assert got == [solve(inst) for inst in pool]
    assert sum(v.is_yes for v in got) >= len(pool) // 10
    if regime != "stage3":
        assert [v.kind for v in got] == [oracle_solve(inst).kind for inst in pool]


def _record_stage3(monkeypatch) -> tuple[list, dict]:
    """Spy on stage 3 of ``solve_half_k``.  Every separator enumeration is
    appended to the returned list as ``(t, deleted, separators)``, where
    ``deleted`` is the deletion set handed to ``_without_arcs`` just before
    an inner call and None for an outer one; the dict maps each t to the
    paths ``disjoint_paths`` last gave for it."""
    calls: list = []
    paths_of: dict = {}
    pending: list = []
    without_arcs = solver_degree._without_arcs
    enumerate_seps = solver_degree.enumerate_important_separators
    disjoint_paths = solver_degree.disjoint_paths

    def spy_without(g, deleted):
        pending.append(deleted)
        return without_arcs(g, deleted)

    def spy_enumerate(g, s, t, h):
        seps = enumerate_seps(g, s, t, h)
        calls.append((t, pending.pop() if pending else None, seps))
        return seps

    def spy_paths(g, s, t, limit):
        paths_of[t] = disjoint_paths(g, s, t, limit)
        return paths_of[t]

    monkeypatch.setattr(solver_degree, "_without_arcs", spy_without)
    monkeypatch.setattr(solver_degree, "enumerate_important_separators", spy_enumerate)
    monkeypatch.setattr(solver_degree, "disjoint_paths", spy_paths)
    return calls, paths_of


def test_stage3_skips_only_deletion_sets_with_no_separator(monkeypatch):
    # the pruned guessing against the unpruned loop, one inner call at a
    # time.  The reference repeats a (t, deleted) pair under later
    # separators of the same t, and each repeat finds what its first call
    # found.  The calls that run are the reference's first calls in order,
    # and every first call skipped finds no separator there.  Verdict kinds
    # against the oracle can miss a wrong skip, since a YES often has
    # several witnesses.
    calls, paths_of = _record_stage3(monkeypatch)
    rng = random.Random(239)
    skipped = repeated = cut_into_t = 0
    for _ in range(80):
        n = rng.randint(6, 11)
        k = rng.choice([1, 2])
        g = random_digraph_degree_capped(rng, n, 2 * k, rng.uniform(0.4, 0.9))
        inst = Instance(graph=g, b=rng.randint(1, 2), k=k, p=rng.randint(1, n))
        del calls[:]
        paths_of.clear()
        with stage3_only():
            got = solve_half_k(inst, max_degree=2 * k)
        ran = [c for c in calls if c[1] is not None]
        expect, ref = stage3_reference(inst, 2 * k)
        assert got == expect
        first: dict = {}
        for t, deleted, seps in ref:
            assert first.setdefault((t, deleted), seps) == seps
        firsts = [(t, deleted, seps) for (t, deleted), seps in first.items()]
        repeated += len(ref) - len(firsts)
        assert [c for c in ran if c[2]] == [c for c in firsts if c[2]]
        # a deletion set whose cut is at most b always has a separator
        assert all(c[2] for c in ran)
        left = iter(ran)
        nxt = next(left, None)
        for call in firsts:
            if call == nxt:
                nxt = next(left, None)
            else:
                assert call[2] == []
                skipped += 1
        assert nxt is None
        for t, deleted, seps in ref:
            if seps and any((path[-2], t) in deleted for path in paths_of.get(t, ())):
                cut_into_t += 1
    assert skipped >= 1000
    assert repeated >= 100
    assert cut_into_t >= 20


def test_stage3_flow_repair_decides_as_a_min_cut_from_scratch(monkeypatch):
    # every deletion set that reaches the flow repair is run exactly when
    # the min cut of the augmented graph without its arcs, from s to t as
    # the inner enumeration's first cut takes it, is at most b; the rows
    # come back as they were, and the paths the repair starts from avoid
    # the set's arcs
    seen = []
    cut_fits = solver_degree._cut_fits

    def spy(out_rows, in_rows, deleted, s, t, b, paths):
        rows = (list(out_rows), list(in_rows))
        got = cut_fits(out_rows, in_rows, deleted, s, t, b, paths)
        assert (out_rows, in_rows) == rows
        n = len(out_rows)
        aug = DirectedGraph.from_arcs(n, [(u, w) for u in range(n) for w in vertices_of(out_rows[u])])
        assert all(aug.has_arc(u, w) for u, w in deleted)
        for path in paths:
            assert path[0] == s and path[-1] == t
            assert not set(zip(path, path[1:])) & deleted
        f_aug = solver_degree._without_arcs(aug, deleted)
        expect = separators._min_vertex_cut(f_aug, f_aug.full_mask, s, 1 << t, b) is not None
        assert got == expect
        seen.append(got)
        return got

    monkeypatch.setattr(solver_degree, "_cut_fits", spy)
    rng = random.Random(269)
    for _ in range(80):
        n = rng.randint(6, 11)
        k = rng.choice([1, 2])
        g = random_digraph_degree_capped(rng, n, 2 * k, rng.uniform(0.4, 0.9))
        inst = Instance(graph=g, b=rng.randint(1, 2), k=k, p=rng.randint(1, n))
        with stage3_only():
            solve_half_k(inst, max_degree=2 * k)
    assert seen.count(True) >= 350 and seen.count(False) >= 150


def test_stage3_runs_each_deletion_guess_once_per_t(monkeypatch):
    # the inner enumeration depends on t and the deletion set alone, so
    # within one solve no pair runs it twice, whichever separators and
    # boundaries offer that deletion set again
    calls, _ = _record_stage3(monkeypatch)
    rng = random.Random(251)
    inner = 0
    for _ in range(60):
        n = rng.randint(6, 11)
        k = rng.choice([1, 2])
        g = random_digraph_degree_capped(rng, n, 2 * k, rng.uniform(0.4, 0.9))
        inst = Instance(graph=g, b=rng.randint(1, 2), k=k, p=rng.randint(1, n))
        del calls[:]
        with stage3_only():
            solve_half_k(inst, max_degree=2 * k)
        pairs = [(t, deleted) for t, deleted, _ in calls if deleted is not None]
        assert len(pairs) == len(set(pairs))
        inner += len(pairs)
    assert inner >= 1000


def test_half_k_unforced_stage3_matches_oracle(monkeypatch):
    # at n <= 9 the bounded stage covers every core size; these rings are
    # large enough that stage 3 has to run on their NOs.  The planted chains
    # have no core within the probe's bound, so stage 3 must find their YES
    # after the piece search misses
    calls, _ = _record_stage3(monkeypatch)
    rng = random.Random(241)
    reached = {"yes": 0, "no": 0}
    rings = [ring_instance(rng) for _ in range(30)]
    chains = [Instance(graph=_planted_chain(n), b=1, k=2, p=3) for n in range(20, 61, 5)]
    for inst in rings + chains:
        del calls[:]
        got = solve_half_k(inst)
        expect = oracle_solve(inst)
        assert got.kind == expect.kind
        if got.is_yes:
            assert verify_solution(inst, got.solution)
        if calls:
            reached[got.kind] += 1
    assert reached["yes"] + reached["no"] >= 15
    assert min(reached.values()) >= 3


def test_stage3_cut_on_backward_reach_is_exact(monkeypatch):
    # after an exhaustive NO_UP_TO(q) probe, stage 3 skips each t whose
    # backward reach holds at most q vertices; the forced run tries every t,
    # so the two must give the same verdict, witness included, and the
    # skipped t's must be exactly the forced run's t's with a reach that small
    probes: list = []
    tried: list = []
    probe = solver_degree.bounded_core_search
    disjoint_paths = solver_degree.disjoint_paths

    def spy_probe(red, q):
        verdict = probe(red, q)
        probes.append((red.graph, verdict))
        return verdict

    def spy_paths(g, s, t, limit):
        tried.append(t)
        return disjoint_paths(g, s, t, limit)

    monkeypatch.setattr(solver_degree, "bounded_core_search", spy_probe)
    monkeypatch.setattr(solver_degree, "disjoint_paths", spy_paths)
    rng = random.Random(2203)
    reached = skipped = stripped = 0
    for _ in range(300):
        k, b = rng.choice([1, 2]), rng.choice([1, 1, 2])
        n = rng.randint(12, 26)
        g = ring_digraph(rng, n, 2 * k, rng.choice([1, 2, 3]))
        top = (n - 2) // (2 * k * b)  # the largest p with n > q
        if g.max_degree() != 2 * k or top <= b:
            continue
        inst = Instance(graph=g, b=b, k=k, p=rng.randint(b + 1, top))
        del probes[:], tried[:]
        got = solve_half_k(inst)
        if [v.kind for _, v in probes] != ["no_up_to"]:
            continue
        cut = list(tried)
        del tried[:]
        with stage3_only():
            forced = solve_half_k(inst)
        assert (got.kind, got.solution) == (forced.kind, forced.solution)
        assert got.kind == oracle_solve(inst).kind
        if got.is_yes:
            assert verify_solution(inst, got.solution)
        # t indexes the reduced graph, the one the probe searched
        g1, q = probes[0][0], probes[0][1].bound
        small = [t for t in tried if reach(g1, 1 << t, "backward").bit_count() <= q]
        assert cut == [t for t in tried if t not in small]
        reached += 1
        skipped += len(small)
        stripped += g1.n < n
    assert reached >= 40 and skipped >= 300 and stripped >= 1


def test_probe_bound_past_the_stripped_graph_ends_stage3_without_a_flow(monkeypatch):
    # when the probe's NO_UP_TO bound is at least the stripped graph's vertex
    # count, the t cut skips every t: the answer is NO and no flow runs
    probes: list = []
    flows: list = []
    probe = solver_degree.bounded_core_search
    disjoint_paths = solver_degree.disjoint_paths

    def spy_probe(red, q):
        verdict = probe(red, q)
        probes.append((red.graph.n, verdict))
        return verdict

    def spy_paths(g, s, t, limit):
        flows.append(t)
        return disjoint_paths(g, s, t, limit)

    monkeypatch.setattr(solver_degree, "bounded_core_search", spy_probe)
    monkeypatch.setattr(solver_degree, "disjoint_paths", spy_paths)
    rng = random.Random(2267)
    covered = 0
    for _ in range(300):
        k = rng.choice([1, 2])
        n = rng.randint(3, 10)
        g = random_digraph_degree_capped(rng, n, 2 * k, rng.uniform(0.3, 0.9))
        if g.max_degree() != 2 * k:
            continue
        inst = Instance(graph=g, b=rng.randint(1, 2), k=k, p=rng.randint(1, n))
        del probes[:], flows[:]
        got = solve_half_k(inst)
        if not probes or probes[0][1].kind != "no_up_to" or probes[0][1].bound < probes[0][0]:
            continue
        assert got.kind == "no" == oracle_solve(inst).kind
        assert flows == []
        covered += 1
    assert covered >= 40


def _planted_chain(n: int) -> DirectedGraph:
    """Arcs v - 1 -> v and v - 2 -> v, plus n - 1 -> 1: anchoring vertex 0
    keeps the whole chain at k = 2, and no core is smaller."""
    arcs = [(v - 1, v) for v in range(1, n)] + [(v - 2, v) for v in range(2, n)]
    return DirectedGraph.from_arcs(n, arcs + [(n - 1, 1)])


@pytest.mark.parametrize("n", [20, 30, 40, 60])
def test_stage3_answers_planted_chains_past_the_cut(monkeypatch, n):
    # max degree 4 = 2k and q = (4p + 1)b = 13 < n, so the exhaustive probe
    # answers NO_UP_TO and stage 3 must find the chain past its t cut
    tried: list = []
    disjoint_paths = solver_degree.disjoint_paths

    def spy_paths(g, s, t, limit):
        tried.append(t)
        return disjoint_paths(g, s, t, limit)

    monkeypatch.setattr(solver_degree, "disjoint_paths", spy_paths)
    inst = Instance(graph=_planted_chain(n), b=1, k=2, p=3)
    assert inst.graph.max_degree() == 4
    got = solve_half_k(inst)
    assert tried
    assert got.is_yes and verify_solution(inst, got.solution)
    with stage3_only():
        assert got == solve_half_k(inst)
    assert got.solution.core.bit_count() > 13
    assert oracle_solve(inst).is_yes
