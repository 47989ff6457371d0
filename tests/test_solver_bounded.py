import random
from itertools import combinations

import pytest

from dakc import (
    DirectedGraph,
    Instance,
    SearchBudgetError,
    Verdict,
    bounded_core_search,
    coloring_stream,
    knapsack_select,
    normalize,
    oracle_solve,
    peel,
    red_components,
    search_with_coloring,
    solve_dag,
    solve_half_k,
    solve_high_k,
    strip_special_components,
    verify_solution,
    vertices_of,
    vset,
)
from dakc import solver_bounded
from dakc.solver_bounded import _piece_search, _pieces
from helpers import (
    adjacency_reference,
    bounded_search_reference,
    coloring_trial_reference,
    cycle_graph,
    largest_feasible,
    path_graph,
    random_dag_degree_capped,
    random_digraph_degree_capped,
    ring_digraph,
    solution_exists_with_core_at_most,
)

def test_bounded_search_examples():
    path = path_graph(3)
    v = bounded_core_search(Instance(graph=path, b=1, k=1, p=3), 3)
    assert v.is_yes
    assert v.solution.anchors == vset([0]) and v.solution.core == vset([0, 1, 2])

    v = bounded_core_search(Instance(graph=path, b=0, k=1, p=1), 3)
    assert v.kind == "no_up_to" and v.bound == 3

    v = bounded_core_search(Instance(graph=cycle_graph(3), b=0, k=1, p=3), 3)
    assert v.is_yes and v.solution.anchors == 0

    # a target past n is NO to every q, with normalize's note
    inst = Instance(graph=path, b=1, k=1, p=4)
    assert bounded_core_search(inst, 5) == Verdict.no_up_to(5, note=normalize(inst).note)
    assert normalize(inst).note == "target core size exceeds vertex count"


def test_bounded_search_requires_q_at_least_p():
    with pytest.raises(ValueError, match="at least the target"):
        bounded_core_search(Instance(graph=path_graph(3), b=1, k=1, p=3), 2)


def test_exhaustive_mode_refuses_large_graphs(monkeypatch):
    # a set cap below what the piece search must enumerate raises; it never
    # answers NO
    g = path_graph(6)
    monkeypatch.setattr(solver_bounded, "SET_CAP", 5)
    with pytest.raises(SearchBudgetError, match="refused"):
        bounded_core_search(Instance(graph=g, b=1, k=1, p=6), 6)


def test_knapsack_examples():
    assert knapsack_select([(1, 3), (2, 5), (1, 2)], 2, 5) == {1}
    assert knapsack_select([(1, 3)], 0, 1) is None
    assert knapsack_select([], 5, 0) == set()


def test_knapsack_matches_subset_search():
    rng = random.Random(61)
    for _ in range(150):
        r = rng.randint(0, 10)
        items = [(rng.randint(0, 3), rng.randint(0, 5)) for _ in range(r)]
        b = rng.randint(0, 5)
        p = rng.randint(0, 12)
        got = knapsack_select(items, b, p)
        feasible = any(
            sum(items[i][0] for i in combo) <= b
            and sum(items[i][1] for i in combo) >= p
            for size in range(r + 1)
            for combo in combinations(range(r), size)
        )
        if got is None:
            assert not feasible
        else:
            assert sum(items[i][0] for i in got) <= b
            assert sum(items[i][1] for i in got) >= p


def test_red_components_respect_coloring():
    g = path_graph(5)
    comps = red_components(g, vset([0, 1, 3]))
    assert sorted(comps) == sorted([vset([0, 1]), vset([3])])


def test_exhaustive_mode_is_exact_for_bounded_cores():
    rng = random.Random(67)
    for _ in range(150):
        n = rng.randint(1, 9)
        g = random_digraph_degree_capped(rng, n, 4, rng.uniform(0.2, 0.7))
        b = rng.randint(0, 2)
        k = rng.randint(1, 2)
        p = rng.randint(1, n)
        q = rng.randint(p, n + 2)
        inst = Instance(graph=g, b=b, k=k, p=p)
        verdict = bounded_core_search(inst, q)
        exists_small = solution_exists_with_core_at_most(inst, q)
        if verdict.is_yes:
            assert verify_solution(inst, verdict.solution)
            # a YES may exceed q, but if a small core exists YES is mandatory
        else:
            assert verdict.kind == "no_up_to"
            assert not exists_small
        if exists_small:
            assert verdict.is_yes


def _splitmix64_replay(seed, n, count):
    # the documented scheme, spelled out: splitmix64 from seed mod 2^64,
    # ceil(n / 64) words per coloring, word j on vertices 64j..64j+63, low
    # bit first, truncated to n bits
    state = seed % (1 << 64)
    masks = []
    for _ in range(count):
        mask = 0
        for j in range((n + 63) // 64):
            state = (state + 0x9E3779B97F4A7C15) % (1 << 64)
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % (1 << 64)
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % (1 << 64)
            z ^= z >> 31
            mask += z << (64 * j)
        masks.append(mask % (1 << n))
    return masks


def test_coloring_stream_is_reproducible_and_documented():
    a = coloring_stream(12345, 10)
    b = coloring_stream(12345, 10)
    first = [next(a) for _ in range(50)]
    assert first == [next(b) for _ in range(50)]
    assert all(0 <= m < 1 << 10 for m in first)
    assert first == _splitmix64_replay(12345, 10, 50)
    # word order and truncation on both sides of a word boundary, and seeds
    # reduced mod 2^64
    for n in (1, 5, 63, 64, 65, 130):
        for seed in (0, 7, 2**64 + 5, -1):
            stream = coloring_stream(seed, n)
            assert [next(stream) for _ in range(40)] == _splitmix64_replay(seed, n, 40)
    assert next(coloring_stream(2**64 + 5, 130)) == next(coloring_stream(5, 130))
    assert next(coloring_stream(-1, 65)) == next(coloring_stream(2**64 - 1, 65))


def test_per_trial_never_emits_unverified_yes():
    rng = random.Random(71)
    for _ in range(60):
        n = rng.randint(1, 8)
        g = random_digraph_degree_capped(rng, n, 4, 0.5)
        k = rng.randint(1, 3)
        b = rng.randint(0, 2)
        p = rng.randint(1, n)
        red = rng.getrandbits(n)
        sol = search_with_coloring(g, k, b, p, red)
        if sol is not None:
            assert verify_solution(Instance(graph=g, b=b, k=k, p=p), sol)


def test_search_with_coloring_matches_reference_trial():
    # the library trial against the plain summarize-then-knapsack trial
    # spelled out in the test helpers
    rng = random.Random(211)
    draws = 5000
    hits = misses = 0
    for _ in range(draws):
        n = rng.randint(1, 14)
        g = random_digraph_degree_capped(rng, n, rng.randint(1, 5), rng.uniform(0.2, 0.9))
        k, b, p = rng.randint(1, 3), rng.randint(0, 3), rng.randint(1, n)
        red = rng.getrandbits(n + 1)  # half the draws set a bit past the graph
        got = search_with_coloring(g, k, b, p, red)
        assert got == coloring_trial_reference(g, k, b, p, red)
        hits += got is not None
        misses += got is None and (red & g.full_mask).bit_count() >= p
    assert hits >= draws // 20
    assert misses >= draws // 20  # misses with at least p red vertices


def _planted_cycle(rng: random.Random) -> tuple[Instance, int]:
    # a 9- to 11-cycle plus out-pendants: at b = 0 and p = its length, the
    # only coloring that hits makes the whole cycle red
    length = rng.randint(9, 11)
    n = length + rng.randint(0, 3)
    arcs = [(i, (i + 1) % length) for i in range(length)]
    arcs += [(rng.randrange(length), v) for v in range(length, n)]
    return Instance(graph=DirectedGraph.from_arcs(n, arcs), b=0, k=1, p=length), length


@pytest.mark.parametrize("mode", ["exhaustive"])
def test_bounded_search_matches_per_trial_reference(mode):
    # the piece search decides as the loop over all 2^n colorings does, in
    # kind, bound and note, and every YES verifies
    rng = random.Random(227)
    got, expect = [], []
    for i in range(150):
        if i % 3 == 0:
            inst, q = _planted_cycle(rng)
        else:
            n = rng.randint(9, 12)
            g = random_digraph_degree_capped(rng, n, rng.randint(2, 5), rng.uniform(0.3, 0.9))
            p = rng.randint(1, n)
            inst = Instance(graph=g, b=rng.randint(0, 3), k=rng.randint(1, 3), p=p)
            q = rng.randint(p, n)
        verdict = bounded_core_search(inst, q)
        if verdict.is_yes:
            assert verify_solution(inst, verdict.solution)
        got.append(verdict)
        expect.append(bounded_search_reference(inst, q))
    assert sum(v.kind == "no_up_to" for v in got) >= 15
    assert [(v.kind, v.bound, v.note) for v in got] == [(v.kind, v.bound, v.note) for v in expect]


def _connected(g, mask: int) -> bool:
    seen = mask & -mask
    frontier = seen
    while frontier:
        grown = 0
        for v in vertices_of(frontier):
            grown |= g.und_mask[v]
        frontier = grown & mask & ~seen
        seen |= frontier
    return seen == mask


def test_pieces_match_subset_search():
    # the pieces against every connected set outside the banked core with at
    # most b deficient members, by subset search
    rng = random.Random(263)
    total = 0
    for _ in range(300):
        n = rng.randint(1, 10)
        k, b = rng.randint(1, 3), rng.randint(0, 2)
        g = random_digraph_degree_capped(rng, n, rng.randint(2, 5), rng.uniform(0.3, 0.9))
        banked = peel(g, k)
        q = rng.randint(1, n)
        got = list(_pieces(g, k, b, q, banked, [0], 10**9, 0))
        expect = []
        for sub in range(1, 1 << n):
            if sub & banked or sub.bit_count() > q or not _connected(g, sub):
                continue
            deficient = vset(
                v for v in vertices_of(sub) if (g.in_mask[v] & (sub | banked)).bit_count() < k
            )
            if deficient.bit_count() <= b:
                expect.append((sub, deficient))
        assert len(got) == len(set(got))
        assert sorted(got) == sorted(expect)
        total += len(got)
    assert total >= 1000


def _anchored_peel_reference(g, k, within, anchors):
    # the vertices of ``within`` left once every non-anchor with fewer than
    # k in-neighbours among those left is removed, one at a time, to a
    # fixpoint
    alive = set(vertices_of(within))
    into = adjacency_reference(g.n, g.arcs())[1]
    changed = True
    while changed:
        changed = False
        for v in sorted(alive):
            if not (anchors >> v) & 1 and sum(u in alive for u in into[v]) < k:
                alive.remove(v)
                changed = True
    return vset(alive)


def _pieces_reference(g, k, b, q, banked, need=None):
    # plain ESU in the order _pieces walks it, each branch cut only by its
    # own tests once popped: the stuck test and, unless need is None, the
    # anchored peel at exactly b stuck members.  Returns the pieces in order,
    # the branches that pass the stuck test, the roots and the children
    # that fail it, and the branches the peel cuts for dropping a member of
    # the branch and for leaving fewer than need vertices
    und, in_mask = g.und_mask, g.in_mask
    free = g.full_mask & ~banked
    pieces, passed, cut_roots, cut_children = [], 0, 0, 0
    member_cuts = size_cuts = 0
    for root in vertices_of(free):
        above = free >> root + 1 << root + 1
        stack = [(1 << root, und[root] & above, 1 << root | und[root])]
        while stack:
            sub, ext, nbr = stack.pop()
            room = sub | ext | banked
            deficient = vset(
                v for v in vertices_of(sub) if (in_mask[v] & (sub | banked)).bit_count() < k
            )
            stuck = vset(v for v in vertices_of(deficient) if (in_mask[v] & room).bit_count() < k)
            if stuck.bit_count() > b:
                if sub.bit_count() == 1:
                    cut_roots += 1
                else:
                    cut_children += 1
                continue
            passed += 1
            if need is not None and stuck.bit_count() == b:
                left = _anchored_peel_reference(g, k, room | (above & ~nbr), stuck | banked)
                if sub & ~left:
                    member_cuts += 1
                    continue
                if (left & ~banked).bit_count() < need:
                    size_cuts += 1
                    continue
            if deficient.bit_count() <= b:
                pieces.append((sub, deficient))
            if sub.bit_count() < q:
                rest = ext
                for w in vertices_of(ext):
                    rest ^= 1 << w
                    stack.append((sub | 1 << w, rest | (und[w] & above & ~nbr), nbr | und[w]))
    return pieces, passed, cut_roots, cut_children, member_cuts, size_cuts


def test_pieces_match_plain_search_in_order_and_count():
    # the same pieces in the same order as a search that pushes every child
    # and cuts it once popped, and a count of exactly the branches that pass
    # the stuck test.  A root has one member, so at b >= 1 no root fails the
    # test and every popped root is counted.  Children are cut once popped,
    # never before the push.  The reference runs the anchored peel with its
    # own copy of the peel, so both of the peel's cuts must fire on the same
    # branches
    rng = random.Random(271)
    counted = roots_cut = children_cut = members = sizes = 0
    for _ in range(6000):
        n = rng.randint(1, 12)
        k, b = rng.randint(1, 3), rng.randint(0, 3)
        g = random_digraph_degree_capped(rng, n, rng.randint(2, 5), rng.uniform(0.3, 0.9))
        banked = peel(g, k)
        q = rng.randint(1, n)
        need = rng.randint(0, n)
        counter = [0]
        got = list(_pieces(g, k, b, q, banked, counter, 10**9, need))
        expect, passed, cut_roots, cut_children, member_cuts, size_cuts = _pieces_reference(
            g, k, b, q, banked, need
        )
        assert got == expect
        assert counter[0] == passed
        if b >= 1:
            assert cut_roots == 0
        counted += counter[0]
        roots_cut += cut_roots
        children_cut += cut_children
        members += member_cuts
        sizes += size_cuts
    assert counted >= 30000 and roots_cut >= 1500
    assert children_cut >= 20000
    assert members >= 10000 and sizes >= 15000


def test_piece_cut_matches_uncut_search(monkeypatch):
    # the piece search with the anchored peel against the same search over
    # every piece of an uncut ESU: the same solution or the same None.  The
    # cut keeps the uncut pieces' order, and each piece it drops spends the
    # whole budget on fewer than need vertices
    rng = random.Random(283)
    uncut = {}

    def uncut_pieces(g, k, b, q, banked, counter, cap, need):
        pieces = _pieces_reference(g, k, b, q, banked)[0]
        uncut["pieces"] = pieces
        return iter(pieces)

    done = answered = dropped = size_cuts = 0
    while done < 1200:
        n = rng.randint(3, 12)
        k, b = rng.randint(1, 3), rng.randint(1, 3)
        make = random_dag_degree_capped if done % 2 else random_digraph_degree_capped
        g = make(rng, n, rng.randint(2, 5), rng.uniform(0.3, 0.9))
        banked = peel(g, k)
        if banked.bit_count() >= n:
            continue
        done += 1
        p = rng.randint(banked.bit_count() + 1, n)
        need = p - banked.bit_count()
        q = rng.randint(1, n)
        got = _piece_search(g, k, b, p, q, 10**9)
        cut = list(_pieces(g, k, b, q, banked, [0], 10**9, need))
        size_cuts += _pieces_reference(g, k, b, q, banked, need)[5]
        with monkeypatch.context() as m:
            m.setattr(solver_bounded, "_pieces", uncut_pieces)
            assert got == _piece_search(g, k, b, p, q, 10**9)
        left = iter(cut)
        nxt = next(left, None)
        for piece, deficient in uncut["pieces"]:
            if (piece, deficient) == nxt:
                nxt = next(left, None)
                continue
            assert piece.bit_count() < need and deficient.bit_count() == b
            dropped += 1
        assert nxt is None
        answered += got is not None
    assert answered >= 500 and done - answered >= 450
    assert dropped >= 8000 and size_cuts >= 7000


def test_piece_search_cuts_branches_that_cannot_hold_a_piece(monkeypatch):
    # on a path out of vertex 0 at k = 2, no vertex has 2 in-neighbours, so
    # each root is its one stuck member, as many as b = 1 allows, and the
    # anchored peel runs: with the root as its only anchor it drops every
    # other vertex and leaves one, fewer than need = 2, so the root is cut
    # before it pushes a child.  Only the n roots are counted, where an
    # uncut search would walk n (n + 1) / 2 sets
    g = path_graph(40)
    inst = Instance(graph=g, b=1, k=2, p=2)
    monkeypatch.setattr(solver_bounded, "SET_CAP", 40)
    v = bounded_core_search(inst, 40)
    assert v.kind == "no_up_to"
    monkeypatch.setattr(solver_bounded, "SET_CAP", 39)
    with pytest.raises(SearchBudgetError):
        bounded_core_search(inst, 40)


def test_piece_search_banks_the_unanchored_core():
    # pieces against subset search, on graphs where peel(G, k) keeps
    # vertices unanchored: the banked core joins every witness, and the
    # pieces around it still decide exactly
    rng = random.Random(251)
    banked = needs_pieces = beyond = 0
    while banked < 200:
        n = rng.randint(3, 10)
        k = rng.randint(1, 2)
        g = random_digraph_degree_capped(rng, n, rng.randint(2, 4), rng.uniform(0.4, 0.9))
        unanchored = peel(g, k)
        if not unanchored:
            continue
        banked += 1
        p = rng.randint(min(n, unanchored.bit_count() + 1), n)
        inst = Instance(graph=g, b=rng.randint(0, 2), k=k, p=p)
        q = rng.randint(p, n)
        verdict = bounded_core_search(inst, q)
        exists_small = solution_exists_with_core_at_most(inst, q)
        if verdict.is_yes:
            assert verify_solution(inst, verdict.solution)
        else:
            assert verdict.kind == "no_up_to" and not exists_small
            beyond += 1
        if exists_small:
            assert verdict.is_yes
            needs_pieces += unanchored.bit_count() < p
    assert needs_pieces >= 50
    assert beyond >= 20


def _ring_pool(regime: str, rng: random.Random, count: int) -> list[Instance]:
    # shaped like the bounded-regimes workload: degree-capped rings with the
    # regime's exact max degree, p = p* or p* + 1 with b < p* < n
    pool = []
    while len(pool) < count:
        if regime == "high":
            k, delta, b = rng.choice([(2, 3, 1), (2, 3, 2), (3, 5, 2)])
            g = ring_digraph(rng, rng.randint(18, 26), delta, 2)
        elif regime == "half":
            k, delta, b = 2, 4, rng.randint(1, 2)
            g = ring_digraph(rng, rng.randint(22, 30), delta, 2)
        else:
            k, delta, b = 2, 5, 2
            g = ring_digraph(rng, rng.randint(12, 16), delta, 3, acyclic=True)
        if g.max_degree() != delta:
            continue
        best = largest_feasible(g, b, k)
        if b < best < g.n:
            pool.append(Instance(graph=g, b=b, k=k, p=best + len(pool) % 2))
    return pool


@pytest.mark.parametrize("regime", ["high", "half", "dag"])
def test_piece_search_stages_match_oracle_on_rings(regime):
    # each stage that runs the piece search, against the oracle, on graphs
    # shaped like the benchmark's; the half-k probe is run as solve_half_k
    # runs it, on the stripped instance up to its size bound
    pool = _ring_pool(regime, random.Random(257), 24)
    probe_yes = 0
    for inst in pool:
        expect = oracle_solve(inst)
        if regime == "high":
            got = solve_high_k(inst)
        elif regime == "dag":
            got = solve_dag(inst)
        else:
            got = solve_half_k(inst)
            reduced = strip_special_components(inst).instance
            q = (inst.graph.max_degree() * reduced.p + 1) * reduced.b
            probe = bounded_core_search(reduced, min(q, reduced.graph.n))
            if probe.is_yes:
                assert verify_solution(reduced, probe.solution)
                probe_yes += 1
            else:
                assert probe.kind == "no_up_to"
        assert got.kind == expect.kind
        if got.is_yes:
            assert verify_solution(inst, got.solution)
    assert sum(v.is_yes for v in map(oracle_solve, pool)) == len(pool) // 2
    if regime == "half":
        assert probe_yes >= len(pool) // 4


# (smallest SET_CAP that answers, answer) for the two instances of
# _ring_pool(regime, random.Random(1), 2), found by bisection
_CAP_PINS = {
    "high": [(29, "yes"), (68, "no_up_to")],
    "half": [(14, "yes"), (49, "no_up_to")],
    "dag": [(112, "yes"), (158, "no_up_to")],
}


@pytest.mark.parametrize("regime", ["high", "half", "dag"])
def test_piece_search_cap_boundaries_are_pinned(regime, monkeypatch):
    # the set count decides where exit 4 starts, so each stage's search, at
    # the q its solver runs it at, answers at its pinned cap and raises one
    # below it; the half-k probe runs on the stripped instance
    for inst, (cap, kind) in zip(_ring_pool(regime, random.Random(1), 2), _CAP_PINS[regime]):
        delta = inst.graph.max_degree()
        if regime == "high":
            q = (delta + 1) * inst.b
        elif regime == "half":
            inst = strip_special_components(inst).instance
            q = (delta * inst.p + 1) * inst.b
        else:
            q = inst.p
        monkeypatch.setattr(solver_bounded, "SET_CAP", cap)
        assert bounded_core_search(inst, q).kind == kind
        monkeypatch.setattr(solver_bounded, "SET_CAP", cap - 1)
        with pytest.raises(SearchBudgetError):
            bounded_core_search(inst, q)


def test_piece_search_runs_without_recursion(monkeypatch):
    # a 1,200-vertex path into vertex 0: from root 0 every set has one
    # deficient member, its far end, so at b = 1 the search walks one branch
    # past depth 1,100, beyond the recursion limit, and the set cap then
    # stops it with an error, never a NO
    g = DirectedGraph.from_arcs(1200, [(v + 1, v) for v in range(1199)])
    monkeypatch.setattr(solver_bounded, "SET_CAP", 1100)
    with pytest.raises(SearchBudgetError):
        bounded_core_search(Instance(graph=g, b=1, k=1, p=1200), 1200)


def test_piece_search_at_b0_answers_from_the_unanchored_core(monkeypatch):
    # every piece holds a deficient member, so at b = 0 no piece qualifies
    # and the unanchored core alone decides: no set is enumerated, and a
    # cap of 0 still answers
    g = DirectedGraph.from_arcs(1200, [(v + 1, v) for v in range(1199)])
    monkeypatch.setattr(solver_bounded, "SET_CAP", 0)
    v = bounded_core_search(Instance(graph=g, b=0, k=1, p=1), 1200)
    assert v.kind == "no_up_to"
    ring = cycle_graph(5)
    v = bounded_core_search(Instance(graph=ring, b=0, k=1, p=5), 5)
    assert v.is_yes and v.solution.core == ring.full_mask
